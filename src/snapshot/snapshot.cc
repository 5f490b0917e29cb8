#include "snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <type_traits>

#include "core/sharded_engine.h"
#include "util/atomic_file_writer.h"
#include "util/fault_injection.h"

namespace silkmoth {
namespace {

// The flat-block read/write below serves these types directly out of the
// file payload (views) or memcpys them (deep copy); all three facts are
// load-bearing.
static_assert(std::is_trivially_copyable_v<Posting> && sizeof(Posting) == 8,
              "Posting must be a flat 8-byte record for in-place snapshot "
              "service");
static_assert(sizeof(size_t) == sizeof(uint64_t),
              "snapshot offsets are stored as u64 and viewed as size_t");
static_assert(sizeof(TokenId) == 4,
              "element token blocks are stored as u32 arrays");

// Section fourcc tags, in the order they must appear in the payload.
constexpr uint32_t kSecMeta = 0x4154454du;  // "META"
constexpr uint32_t kSecDict = 0x54434944u;  // "DICT"
constexpr uint32_t kSecColl = 0x4c4c4f43u;  // "COLL"
constexpr uint32_t kSecStab = 0x42415453u;  // "STAB"
constexpr uint32_t kSecShrd = 0x44524853u;  // "SHRD"

// Container kinds (META field): what this file is in the split protocol.
constexpr uint32_t kContainerMonolithic = 0;
constexpr uint32_t kContainerSplitCommon = 1;
constexpr uint32_t kContainerSplitShard = 2;

constexpr uint32_t kNoShardId = 0xFFFFFFFFu;

// ---------------------------------------------------------------------------
// Writer: append little-endian scalars and raw blocks to a byte buffer.
// The buffer holds exactly the payload, and the payload begins at the
// 8-aligned file offset kSnapshotHeaderSize, so buf->size() % 8 is the
// block's alignment both in the file and in a mapped region.

void AppendBytes(std::string* buf, const void* data, size_t size) {
  buf->append(static_cast<const char*>(data), size);
}

void AppendU32(std::string* buf, uint32_t v) { AppendBytes(buf, &v, 4); }
void AppendU64(std::string* buf, uint64_t v) { AppendBytes(buf, &v, 8); }

/// Zero-pads to the next 8-byte boundary; array blocks are always written
/// (and read back) 8-aligned so views can be typed without misalignment.
void AlignTo8(std::string* buf) {
  while (buf->size() % 8 != 0) buf->push_back('\0');
}

// Opens a section: appends the tag and a length placeholder, returns the
// placeholder's position for CloseSection to patch.
size_t OpenSection(std::string* buf, uint32_t tag) {
  AppendU32(buf, tag);
  const size_t len_pos = buf->size();
  AppendU64(buf, 0);
  return len_pos;
}

void CloseSection(std::string* buf, size_t len_pos) {
  const uint64_t body_len = buf->size() - (len_pos + 8);
  std::memcpy(buf->data() + len_pos, &body_len, 8);
}

// ---------------------------------------------------------------------------
// Reader: a bounds-checked cursor over a byte span. Every read checks the
// remaining length first; the first overrun latches an error and every
// subsequent read fails, so parsing code can check ok() once per section.
// `base` is the span's offset from the payload start, which makes the
// 8-alignment of any position computable — ReadArrayView aligns exactly the
// way the writer did before handing out a typed view of the raw bytes.

class Reader {
 public:
  Reader(const char* data, size_t size, size_t base)
      : data_(data), size_(size), base_(base) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  size_t payload_pos() const { return base_ + pos_; }

  const char* ReadBytes(size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return nullptr;
    }
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  uint32_t ReadU32() {
    const char* p = ReadBytes(4);
    uint32_t v = 0;
    if (p != nullptr) std::memcpy(&v, p, 4);
    return v;
  }

  uint64_t ReadU64() {
    const char* p = ReadBytes(8);
    uint64_t v = 0;
    if (p != nullptr) std::memcpy(&v, p, 8);
    return v;
  }

  /// Skips the writer's zero padding up to the next 8-aligned payload
  /// position.
  void AlignTo8() {
    const size_t pad = (8 - (payload_pos() & 7)) & 7;
    if (pad != 0) ReadBytes(pad);
  }

  /// Aligns, validates `count` against the remaining bytes, and returns a
  /// typed view of the block *in place* — no allocation, no copy, so a
  /// lying count can neither OOM nor overrun (the span is empty and ok()
  /// is false on any failure).
  template <typename T>
  std::span<const T> ReadArrayView(uint64_t count) {
    AlignTo8();
    if (!ok_ || count > remaining() / sizeof(T)) {
      ok_ = false;
      return {};
    }
    const char* p = ReadBytes(static_cast<size_t>(count) * sizeof(T));
    if (p == nullptr) return {};
    return {reinterpret_cast<const T*>(p), static_cast<size_t>(count)};
  }

 private:
  const char* data_;
  size_t size_;
  size_t base_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Reads one section header and returns a sub-reader confined to its body.
// The tag must match and the claimed body length must fit in the payload.
bool EnterSection(Reader* payload, uint32_t want_tag, Reader* body) {
  const uint32_t tag = payload->ReadU32();
  const uint64_t len = payload->ReadU64();
  if (!payload->ok() || tag != want_tag) return false;
  const size_t body_base = payload->payload_pos();
  const char* p = payload->ReadBytes(len);
  if (p == nullptr) return false;
  *body = Reader(p, len, body_base);
  return true;
}

/// True when `offsets` is a valid CSR ruler: starts at 0, never decreases,
/// and ends exactly at `arena_size`.
bool ValidOffsets(std::span<const uint64_t> offsets, uint64_t arena_size) {
  if (offsets.empty() || offsets.front() != 0) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return offsets.back() == arena_size;
}

// ---------------------------------------------------------------------------
// Section writers.

struct MetaInfo {
  uint32_t kind = kContainerMonolithic;
  uint32_t tokenizer = 0;
  uint32_t q = 0;
  uint64_t num_sets = 0;
  uint32_t num_shards = 0;
  uint32_t binding_crc = 0;   ///< Split-shard: CRC of the common payload.
  uint32_t shard_id = kNoShardId;  ///< Split-shard: which shard this is.
  uint64_t generation = 1;    ///< Compaction lineage counter (v3).
};

void AppendMetaSection(std::string* payload, const MetaInfo& meta) {
  const size_t len_pos = OpenSection(payload, kSecMeta);
  AppendU32(payload, meta.kind);
  AppendU32(payload, meta.tokenizer);
  AppendU32(payload, meta.q);
  AppendU64(payload, meta.num_sets);
  AppendU32(payload, meta.num_shards);
  AppendU32(payload, meta.binding_crc);
  AppendU32(payload, meta.shard_id);
  AppendU64(payload, meta.generation);
  CloseSection(payload, len_pos);
}

void AppendDictSection(std::string* payload, const TokenDictionary& dict) {
  const size_t len_pos = OpenSection(payload, kSecDict);
  AppendU64(payload, dict.size());
  AlignTo8(payload);
  uint64_t offset = 0;
  for (TokenId t = 0; t < dict.size(); ++t) {
    AppendU64(payload, offset);
    offset += dict.Token(t).size();
  }
  AppendU64(payload, offset);
  for (TokenId t = 0; t < dict.size(); ++t) {
    const std::string_view tok = dict.Token(t);
    AppendBytes(payload, tok.data(), tok.size());
  }
  CloseSection(payload, len_pos);
}

void AppendCollSection(std::string* payload, const Collection& data) {
  const size_t len_pos = OpenSection(payload, kSecColl);
  const uint64_t num_elements = data.NumElements();
  AppendU64(payload, data.sets.size());
  AppendU64(payload, num_elements);
  AlignTo8(payload);
  // Four CSR rulers (all u64, written back to back so one alignment pad
  // covers them), then the three arenas they slice.
  uint64_t cursor = 0;
  for (const SetRecord& set : data.sets) {  // set -> element range
    AppendU64(payload, cursor);
    cursor += set.elements.size();
  }
  AppendU64(payload, cursor);
  uint64_t text_off = 0, token_off = 0, chunk_off = 0;
  for (const SetRecord& set : data.sets) {  // element -> text range
    for (const Element& e : set.elements) {
      AppendU64(payload, text_off);
      text_off += e.text.size();
    }
  }
  AppendU64(payload, text_off);
  for (const SetRecord& set : data.sets) {  // element -> token range
    for (const Element& e : set.elements) {
      AppendU64(payload, token_off);
      token_off += e.tokens.size();
    }
  }
  AppendU64(payload, token_off);
  for (const SetRecord& set : data.sets) {  // element -> chunk range
    for (const Element& e : set.elements) {
      AppendU64(payload, chunk_off);
      chunk_off += e.chunks.size();
    }
  }
  AppendU64(payload, chunk_off);
  for (const SetRecord& set : data.sets) {  // text arena
    for (const Element& e : set.elements) {
      AppendBytes(payload, e.text.data(), e.text.size());
    }
  }
  AlignTo8(payload);
  for (const SetRecord& set : data.sets) {  // token arena
    for (const Element& e : set.elements) {
      AppendBytes(payload, e.tokens.data(), e.tokens.size() * sizeof(TokenId));
    }
  }
  AlignTo8(payload);
  for (const SetRecord& set : data.sets) {  // chunk arena
    for (const Element& e : set.elements) {
      AppendBytes(payload, e.chunks.data(), e.chunks.size() * sizeof(TokenId));
    }
  }
  CloseSection(payload, len_pos);
}

void AppendStabSection(std::string* payload,
                       const std::vector<Snapshot::Shard>& shards) {
  const size_t len_pos = OpenSection(payload, kSecStab);
  AppendU32(payload, static_cast<uint32_t>(shards.size()));
  for (const Snapshot::Shard& shard : shards) {
    AppendU32(payload, shard.range.begin);
    AppendU32(payload, shard.range.end);
  }
  CloseSection(payload, len_pos);
}

void AppendShrdSection(std::string* payload, uint32_t shard_id,
                       const Snapshot::Shard& shard) {
  const size_t len_pos = OpenSection(payload, kSecShrd);
  AppendU32(payload, shard_id);
  AppendU32(payload, shard.range.begin);
  AppendU32(payload, shard.range.end);
  const auto offsets = shard.index.RawOffsets();
  const auto postings = shard.index.RawPostings();
  AppendU64(payload, offsets.size());
  AlignTo8(payload);
  AppendBytes(payload, offsets.data(), offsets.size() * sizeof(size_t));
  AppendU64(payload, postings.size());
  AlignTo8(payload);
  AppendBytes(payload, postings.data(), postings.size() * sizeof(Posting));
  CloseSection(payload, len_pos);
}

/// Computes the payload CRC, frames it with the v2 header, and stages the
/// container's bytes through `writer` (AtomicFileWriter's ".tmp" sibling).
/// Publication is a separate step (writer->Commit()), so multi-file saves
/// can stage everything before renaming anything — and an abandoned writer
/// cleans its staging file up by itself. `crc_out` (optional) receives the
/// payload CRC — the split protocol's binding id.
std::string StageContainer(AtomicFileWriter* writer,
                           const std::string& payload,
                           uint32_t* crc_out = nullptr) {
  std::string header(kSnapshotHeaderSize, '\0');
  std::memcpy(header.data(), kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint32_t version = kSnapshotVersion;
  std::memcpy(header.data() + kSnapshotVersionOffset, &version, 4);
  const uint32_t endian = kSnapshotEndianMarker;
  std::memcpy(header.data() + kSnapshotEndianOffset, &endian, 4);
  const uint64_t payload_len = payload.size();
  std::memcpy(header.data() + kSnapshotPayloadLenOffset, &payload_len, 8);
  const uint32_t crc = SnapshotCrc32(payload.data(), payload.size());
  std::memcpy(header.data() + kSnapshotCrcOffset, &crc, 4);
  if (crc_out != nullptr) *crc_out = crc;

  std::string err = writer->Open();
  if (err.empty()) err = writer->Write(header);
  if (err.empty()) err = writer->Write(payload);
  if (err.empty()) err = writer->Stage();
  return err;
}

/// Stage + commit in one step, for single-file saves.
std::string WriteContainer(const std::string& path,
                           const std::string& payload,
                           const char* fault_site,
                           uint32_t* crc_out = nullptr) {
  AtomicFileWriter writer(path, fault_site);
  const std::string err = StageContainer(&writer, payload, crc_out);
  if (!err.empty()) return err;
  return writer.Commit();
}

// ---------------------------------------------------------------------------
// Container opening: one region per file, with header/CRC gate and byte
// accounting.

struct ContainerView {
  MmapRegion region;
  const char* payload = nullptr;
  size_t payload_len = 0;
  uint32_t crc = 0;
};

std::string OpenContainer(const std::string& path, SnapshotLoadMode mode,
                          ContainerView* out, SnapshotLoadStats* stats) {
  // Fault-injection site: a worker armed with `snapshot-open:fail` sees its
  // snapshot load error out, exercising the orchestrator's exit-nonzero
  // path without a real broken file.
  if (fault::Hit("snapshot-open").kind == fault::Outcome::kFail) {
    return "cannot open " + path + " (injected open failure)";
  }
  ContainerView cv;
  const std::string io_err = mode == SnapshotLoadMode::kMmap
                                 ? cv.region.Map(path)
                                 : cv.region.Read(path);
  if (!io_err.empty()) return io_err;
  stats->files += 1;
  if (cv.region.is_mapped()) {
    stats->bytes_mapped += cv.region.size();
  } else {
    stats->bytes_copied += cv.region.size();
  }

  const char* buf = cv.region.data();
  const size_t file_size = cv.region.size();
  if (file_size < kSnapshotHeaderSize) {
    return path + ": truncated header (file too small to be a snapshot)";
  }
  // Header gate: magic, version, endianness, length, checksum — in that
  // order, so every error names the first thing actually wrong.
  if (std::memcmp(buf, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return path + ": bad magic (not a silkmoth snapshot)";
  }
  uint32_t version = 0;
  std::memcpy(&version, buf + kSnapshotVersionOffset, 4);
  if (version != kSnapshotVersion) {
    return path + ": unsupported snapshot version " + std::to_string(version);
  }
  uint32_t endian = 0;
  std::memcpy(&endian, buf + kSnapshotEndianOffset, 4);
  if (endian != kSnapshotEndianMarker) {
    return path + ": endianness mismatch (snapshot written on an " +
           "opposite-endian machine)";
  }
  uint64_t payload_len = 0;
  std::memcpy(&payload_len, buf + kSnapshotPayloadLenOffset, 8);
  if (payload_len != file_size - kSnapshotHeaderSize) {
    return path + ": payload length mismatch (truncated or padded file)";
  }
  uint32_t want_crc = 0;
  std::memcpy(&want_crc, buf + kSnapshotCrcOffset, 4);
  cv.payload = buf + kSnapshotHeaderSize;
  cv.payload_len = payload_len;
  cv.crc = SnapshotCrc32(cv.payload, payload_len);
  if (cv.crc != want_crc) {
    return path + ": checksum mismatch (corrupt payload)";
  }
  *out = std::move(cv);
  return "";
}

// ---------------------------------------------------------------------------
// Section parsers. All views point into the container's bytes; `deep_copy`
// materializes owned storage instead (the kCopy mode).

bool ParseMetaSection(Reader* payload, MetaInfo* meta) {
  Reader body(nullptr, 0, 0);
  if (!EnterSection(payload, kSecMeta, &body)) return false;
  meta->kind = body.ReadU32();
  meta->tokenizer = body.ReadU32();
  meta->q = body.ReadU32();
  meta->num_sets = body.ReadU64();
  meta->num_shards = body.ReadU32();
  meta->binding_crc = body.ReadU32();
  meta->shard_id = body.ReadU32();
  meta->generation = body.ReadU64();
  return body.ok() && body.remaining() == 0 &&
         meta->kind <= kContainerSplitShard && meta->tokenizer <= 1 &&
         meta->q <= (1u << 20) && meta->num_shards != 0 &&
         meta->generation != 0;
}

std::string ParseDictSection(Reader* payload, const std::string& path,
                             bool deep_copy,
                             std::shared_ptr<TokenDictionary>* out) {
  Reader body(nullptr, 0, 0);
  if (!EnterSection(payload, kSecDict, &body)) {
    return path + ": malformed DICT section";
  }
  const uint64_t count = body.ReadU64();
  // count+1 offsets; reject counts the body cannot possibly hold before
  // computing count + 1 (no overflow, no oversized view).
  if (!body.ok() || count > body.remaining() / 8) {
    return path + ": truncated DICT section";
  }
  const std::span<const uint64_t> offsets =
      body.ReadArrayView<uint64_t>(count + 1);
  if (!body.ok()) return path + ": truncated DICT section";
  if (!ValidOffsets(offsets, body.remaining())) {
    return path + ": malformed DICT section";
  }
  const char* bytes = body.ReadBytes(body.remaining());
  if (bytes == nullptr && offsets.back() != 0) {
    return path + ": truncated DICT section";
  }
  std::vector<std::string_view> tokens(static_cast<size_t>(count));
  for (uint64_t t = 0; t < count; ++t) {
    tokens[t] = std::string_view(bytes + offsets[t],
                                 static_cast<size_t>(offsets[t + 1] -
                                                     offsets[t]));
  }
  auto dict = std::make_shared<TokenDictionary>();
  if (deep_copy) {
    for (uint64_t t = 0; t < count; ++t) {
      if (dict->Intern(tokens[t]) != t) {
        return path + ": duplicate token in DICT section";
      }
    }
  } else {
    if (!dict->AdoptTokens(std::move(tokens)).empty()) {
      return path + ": duplicate token in DICT section";
    }
  }
  *out = std::move(dict);
  return "";
}

std::string ParseCollSection(Reader* payload, const std::string& path,
                             uint64_t want_sets, bool deep_copy,
                             std::vector<SetRecord>* out) {
  Reader body(nullptr, 0, 0);
  if (!EnterSection(payload, kSecColl, &body)) {
    return path + ": malformed COLL section";
  }
  const uint64_t num_sets = body.ReadU64();
  const uint64_t num_elements = body.ReadU64();
  if (!body.ok() || num_sets != want_sets) {
    return path + ": malformed COLL section";
  }
  // Ruler sizes are validated against the remaining bytes by ReadArrayView
  // itself; the +1 additions cannot overflow past that gate because each
  // count must fit in remaining/8 first.
  if (num_sets > body.remaining() / 8 || num_elements > body.remaining() / 8) {
    return path + ": truncated COLL section";
  }
  const auto set_offsets = body.ReadArrayView<uint64_t>(num_sets + 1);
  const auto text_offsets = body.ReadArrayView<uint64_t>(num_elements + 1);
  const auto token_offsets = body.ReadArrayView<uint64_t>(num_elements + 1);
  const auto chunk_offsets = body.ReadArrayView<uint64_t>(num_elements + 1);
  if (!body.ok()) return path + ": truncated COLL section";
  if (!ValidOffsets(set_offsets, num_elements)) {
    return path + ": malformed COLL section";
  }
  // The three arenas: text (raw bytes), then 8-aligned token and chunk
  // blocks. Each ruler must end exactly at its arena's size.
  const uint64_t text_size = text_offsets.empty() ? 0 : text_offsets.back();
  if (text_offsets.empty() || text_offsets.front() != 0 ||
      text_size > body.remaining()) {
    return path + ": malformed COLL section";
  }
  const char* text_arena = body.ReadBytes(static_cast<size_t>(text_size));
  const auto token_arena = body.ReadArrayView<TokenId>(
      token_offsets.empty() ? 0 : token_offsets.back());
  const auto chunk_arena = body.ReadArrayView<TokenId>(
      chunk_offsets.empty() ? 0 : chunk_offsets.back());
  if (!body.ok() ||
      !ValidOffsets(text_offsets, text_size) ||
      !ValidOffsets(token_offsets, token_arena.size()) ||
      !ValidOffsets(chunk_offsets, chunk_arena.size())) {
    return path + ": malformed COLL section";
  }
  if (body.remaining() != 0) return path + ": oversized COLL section";

  std::vector<SetRecord> sets;
  sets.reserve(static_cast<size_t>(num_sets));
  auto arena = deep_copy ? std::make_shared<ElementArena>() : nullptr;
  for (uint64_t s = 0; s < num_sets; ++s) {
    SetRecord set;
    const uint64_t first = set_offsets[s];
    const uint64_t last = set_offsets[s + 1];
    set.elements.reserve(static_cast<size_t>(last - first));
    for (uint64_t e = first; e < last; ++e) {
      Element elem;
      elem.text = std::string_view(
          text_arena + text_offsets[e],
          static_cast<size_t>(text_offsets[e + 1] - text_offsets[e]));
      elem.tokens = token_arena.subspan(
          static_cast<size_t>(token_offsets[e]),
          static_cast<size_t>(token_offsets[e + 1] - token_offsets[e]));
      elem.chunks = chunk_arena.subspan(
          static_cast<size_t>(chunk_offsets[e]),
          static_cast<size_t>(chunk_offsets[e + 1] - chunk_offsets[e]));
      if (deep_copy) {
        elem = MakeArenaElement(arena.get(), elem.text, elem.tokens,
                                elem.chunks);
      }
      set.elements.push_back(elem);
    }
    set.arena = arena;
    sets.push_back(std::move(set));
  }
  *out = std::move(sets);
  return "";
}

std::string ParseStabSection(Reader* payload, const std::string& path,
                             const MetaInfo& meta,
                             std::vector<SetIdRange>* out) {
  Reader body(nullptr, 0, 0);
  if (!EnterSection(payload, kSecStab, &body)) {
    return path + ": malformed STAB section";
  }
  const uint32_t count = body.ReadU32();
  if (!body.ok() || count != meta.num_shards) {
    return path + ": malformed STAB section";
  }
  std::vector<SetIdRange> ranges(count);
  uint32_t cursor = 0;
  for (uint32_t s = 0; s < count; ++s) {
    ranges[s].begin = body.ReadU32();
    ranges[s].end = body.ReadU32();
    // The ranges must partition [0, num_sets) in order — DiscoverShardSelf
    // and the merge protocol both assume exactly that.
    if (!body.ok() || ranges[s].begin != cursor ||
        ranges[s].end < ranges[s].begin || ranges[s].end > meta.num_sets) {
      return path + ": malformed STAB section";
    }
    cursor = ranges[s].end;
  }
  if (body.remaining() != 0 || cursor != meta.num_sets) {
    return path + ": malformed STAB section";
  }
  *out = std::move(ranges);
  return "";
}

std::string ParseShrdSection(Reader* payload, const std::string& path,
                             uint32_t want_shard, SetIdRange want_range,
                             bool deep_copy, InvertedIndex* out) {
  const std::string err =
      path + ": malformed SHRD section " + std::to_string(want_shard);
  Reader body(nullptr, 0, 0);
  if (!EnterSection(payload, kSecShrd, &body)) return err;
  const uint32_t shard_id = body.ReadU32();
  const uint32_t begin = body.ReadU32();
  const uint32_t end = body.ReadU32();
  const auto offsets = body.ReadArrayView<size_t>(body.ReadU64());
  const auto postings = body.ReadArrayView<Posting>(body.ReadU64());
  if (!body.ok() || body.remaining() != 0 || shard_id != want_shard ||
      begin != want_range.begin || end != want_range.end) {
    return err;
  }
  const bool adopted =
      deep_copy
          ? out->AdoptCsr(std::vector<size_t>(offsets.begin(), offsets.end()),
                          std::vector<Posting>(postings.begin(),
                                               postings.end()))
          : out->AdoptCsrView(offsets, postings);
  if (!adopted) {
    return path + ": invalid CSR arrays in SHRD section " +
           std::to_string(want_shard);
  }
  return "";
}

/// Value gate, after adoption has vetted the offsets shape: query code
/// indexes sets and scratch arrays by posting set/elem ids without further
/// checks, and ListInSet binary-searches each list's (set, elem) order — so
/// even a checksum-valid file must not smuggle out-of-range, unsorted, or
/// duplicate postings past load (one linear scan of the in-place lists; the
/// postings themselves are never re-parsed).
std::string ValidatePostings(const std::string& path, uint32_t shard_id,
                             const Snapshot::Shard& shard,
                             const std::vector<SetRecord>& sets) {
  for (TokenId t = 0; t < shard.index.NumTokens(); ++t) {
    const std::span<const Posting> list = shard.index.List(t);
    for (size_t i = 0; i < list.size(); ++i) {
      if (!shard.range.Contains(list[i].set_id) ||
          list[i].elem_id >= sets[list[i].set_id].elements.size()) {
        return path + ": posting out of range in SHRD section " +
               std::to_string(shard_id);
      }
      if (i > 0 && !(list[i - 1] < list[i])) {
        return path + ": unsorted or duplicate postings in SHRD section " +
               std::to_string(shard_id);
      }
    }
  }
  return "";
}

/// Shared load driver. An empty `only_shard` loads every shard; otherwise
/// only that shard's index is built (and, for split snapshots, only that
/// shard's file is opened). *out is only touched on full success.
std::string LoadImpl(const std::string& path,
                     std::optional<uint64_t> only_shard, Snapshot* out,
                     SnapshotLoadMode mode, SnapshotLoadStats* stats_out) {
  const bool deep_copy = mode == SnapshotLoadMode::kCopy;
  SnapshotLoadStats stats;
  Snapshot snap;

  ContainerView common;
  {
    const std::string err = OpenContainer(path, mode, &common, &stats);
    if (!err.empty()) return err;
  }
  Reader payload(common.payload, common.payload_len, 0);

  MetaInfo meta;
  if (!ParseMetaSection(&payload, &meta)) {
    return path + ": malformed META section";
  }
  if (meta.kind == kContainerSplitShard) {
    return path + ": is a split snapshot shard file; load it through its "
           "common file";
  }
  snap.tokenizer = static_cast<TokenizerKind>(meta.tokenizer);
  snap.q = static_cast<int>(meta.q);
  snap.generation = meta.generation;
  if (only_shard && *only_shard >= meta.num_shards) {
    return path + ": shard id " + std::to_string(*only_shard) +
           " out of range: snapshot has " + std::to_string(meta.num_shards) +
           " shards";
  }

  {
    const std::string err =
        ParseDictSection(&payload, path, deep_copy, &snap.data.dict);
    if (!err.empty()) return err;
  }
  {
    const std::string err = ParseCollSection(&payload, path, meta.num_sets,
                                             deep_copy, &snap.data.sets);
    if (!err.empty()) return err;
  }
  std::vector<SetIdRange> ranges;
  {
    const std::string err = ParseStabSection(&payload, path, meta, &ranges);
    if (!err.empty()) return err;
  }
  snap.shards.resize(meta.num_shards);
  for (uint32_t s = 0; s < meta.num_shards; ++s) {
    snap.shards[s].range = ranges[s];
  }

  if (meta.kind == kContainerMonolithic) {
    // SHRD sections follow in shard order; unrequested shards are still
    // structurally validated (the bytes are in hand anyway) but as views —
    // never deep-copied — and their index is dropped.
    for (uint32_t s = 0; s < meta.num_shards; ++s) {
      const bool wanted = !only_shard || *only_shard == s;
      InvertedIndex index;
      const std::string err = ParseShrdSection(&payload, path, s, ranges[s],
                                               deep_copy && wanted, &index);
      if (!err.empty()) return err;
      if (wanted) {
        snap.shards[s].index = std::move(index);
        snap.shards[s].loaded = true;
      }
    }
    if (payload.remaining() != 0) {
      return path + ": trailing bytes after last section";
    }
  } else {  // Split common: shard indexes live in sibling files.
    if (payload.remaining() != 0) {
      return path + ": trailing bytes after last section";
    }
    for (uint32_t s = 0; s < meta.num_shards; ++s) {
      if (only_shard && *only_shard != s) {
        continue;  // The point of the split: other shards stay untouched.
      }
      const std::string shard_path = SnapshotShardPath(path, s);
      ContainerView sv;
      {
        const std::string err = OpenContainer(shard_path, mode, &sv, &stats);
        if (!err.empty()) return err;
      }
      Reader spayload(sv.payload, sv.payload_len, 0);
      MetaInfo smeta;
      if (!ParseMetaSection(&spayload, &smeta)) {
        return shard_path + ": malformed META section";
      }
      if (smeta.kind != kContainerSplitShard || smeta.shard_id != s ||
          smeta.num_sets != meta.num_sets ||
          smeta.num_shards != meta.num_shards ||
          smeta.generation != meta.generation) {
        return shard_path + ": malformed META section";
      }
      if (smeta.binding_crc != common.crc) {
        return shard_path + ": snapshot/shard binding mismatch (shard file "
               "belongs to a different build of " + path + ")";
      }
      const std::string err = ParseShrdSection(&spayload, shard_path, s,
                                               ranges[s], deep_copy,
                                               &snap.shards[s].index);
      if (!err.empty()) return err;
      if (spayload.remaining() != 0) {
        return shard_path + ": trailing bytes after last section";
      }
      snap.shards[s].loaded = true;
      if (!deep_copy) snap.regions.push_back(std::move(sv.region));
    }
  }

  for (uint32_t s = 0; s < meta.num_shards; ++s) {
    if (!snap.shards[s].loaded) continue;
    const std::string err =
        ValidatePostings(path, s, snap.shards[s], snap.data.sets);
    if (!err.empty()) return err;
  }

  // View mode keeps the backing bytes alive inside the snapshot; copy mode
  // owns everything already and lets the regions die here.
  if (!deep_copy) snap.regions.push_back(std::move(common.region));

  *out = std::move(snap);
  if (stats_out != nullptr) *stats_out = stats;
  return "";
}

}  // namespace

uint32_t SnapshotCrc32(const void* data, size_t size) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Snapshot BuildSnapshot(Collection data, TokenizerKind tokenizer, int q,
                       uint32_t num_shards, int num_threads) {
  Snapshot snap;
  snap.tokenizer = tokenizer;
  snap.q = q;
  snap.data = std::move(data);

  // The exact partition + parallel index construction the engine uses,
  // so snapshot shard k is interchangeable with in-process shard k.
  const std::vector<SetIdRange> ranges =
      ComputeShardRanges(snap.data, num_shards);
  std::vector<InvertedIndex> indexes =
      BuildShardIndexes(snap.data, ranges, num_threads);
  snap.shards.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    snap.shards[s].range = ranges[s];
    snap.shards[s].index = std::move(indexes[s]);
    snap.shards[s].loaded = true;
  }
  return snap;
}

std::string SnapshotShardPath(const std::string& path, uint32_t shard) {
  return path + ".shard" + std::to_string(shard);
}

namespace {

std::string CheckSaveable(const Snapshot& snap) {
  if (snap.data.dict == nullptr) return "snapshot has no token dictionary";
  if (snap.shards.empty()) return "snapshot has no shards";
  for (const Snapshot::Shard& shard : snap.shards) {
    if (!shard.loaded) {
      return "cannot save a partially loaded snapshot (run build against "
             "the full corpus)";
    }
  }
  return "";
}

MetaInfo CommonMeta(const Snapshot& snap, uint32_t kind) {
  MetaInfo meta;
  meta.kind = kind;
  meta.tokenizer = static_cast<uint32_t>(snap.tokenizer);
  meta.q = static_cast<uint32_t>(snap.q);
  meta.num_sets = snap.data.sets.size();
  meta.num_shards = static_cast<uint32_t>(snap.shards.size());
  meta.generation = snap.generation;
  return meta;
}

void AppendCommonSections(std::string* payload, const Snapshot& snap,
                          uint32_t kind) {
  AppendMetaSection(payload, CommonMeta(snap, kind));
  AppendDictSection(payload, *snap.data.dict);
  AppendCollSection(payload, snap.data);
  AppendStabSection(payload, snap.shards);
}

}  // namespace

std::string SaveSnapshot(const Snapshot& snap, const std::string& path,
                         const char* fault_site) {
  const std::string err = CheckSaveable(snap);
  if (!err.empty()) return err;
  std::string payload;
  AppendCommonSections(&payload, snap, kContainerMonolithic);
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    AppendShrdSection(&payload, static_cast<uint32_t>(s), snap.shards[s]);
  }
  return WriteContainer(path, payload, fault_site);
}

std::string SaveSnapshotSplit(const Snapshot& snap, const std::string& path,
                              const char* fault_site) {
  const std::string err = CheckSaveable(snap);
  if (!err.empty()) return err;

  // The common payload's CRC binds the generation together: every shard
  // file records it, so shards of different builds can never mix — a
  // cross-generation pairing fails the binding check at load instead of
  // silently combining.
  std::string common_payload;
  AppendCommonSections(&common_payload, snap, kContainerSplitCommon);
  const uint32_t common_crc =
      SnapshotCrc32(common_payload.data(), common_payload.size());

  // Two-phase publish: stage every file's bytes to its .tmp sibling first,
  // then rename them all — shard files first, common last. A previously
  // existing snapshot stays fully intact until the renames begin, so the
  // window in which a crash can leave mixed generations on disk is a few
  // renames wide, not the whole build — and the binding CRC turns even
  // that into a clean refusal. Writer destructors remove any still-staged
  // ".tmp" files on every early-return path.
  std::vector<std::unique_ptr<AtomicFileWriter>> writers;
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    MetaInfo meta = CommonMeta(snap, kContainerSplitShard);
    meta.binding_crc = common_crc;
    meta.shard_id = static_cast<uint32_t>(s);
    std::string payload;
    AppendMetaSection(&payload, meta);
    AppendShrdSection(&payload, static_cast<uint32_t>(s), snap.shards[s]);
    writers.push_back(std::make_unique<AtomicFileWriter>(
        SnapshotShardPath(path, static_cast<uint32_t>(s)), fault_site));
    const std::string serr = StageContainer(writers.back().get(), payload);
    if (!serr.empty()) return serr;
  }
  writers.push_back(std::make_unique<AtomicFileWriter>(path, fault_site));
  std::string werr = StageContainer(writers.back().get(), common_payload);
  // Commit order: shard files first, common last — a readable common file
  // implies its shard files are complete. writers.back() is the common one.
  for (size_t i = 0; werr.empty() && i < writers.size(); ++i) {
    werr = writers[i]->Commit();
  }
  return werr;
}

std::string LoadSnapshot(const std::string& path, Snapshot* out,
                         SnapshotLoadMode mode, SnapshotLoadStats* stats) {
  return LoadImpl(path, /*only_shard=*/std::nullopt, out, mode, stats);
}

std::string LoadSnapshotShard(const std::string& path, uint64_t shard,
                              Snapshot* out, SnapshotLoadMode mode,
                              SnapshotLoadStats* stats) {
  return LoadImpl(path, shard, out, mode, stats);
}

}  // namespace silkmoth
