// Corrupt-snapshot robustness: every way a snapshot file can go bad —
// truncation, bad magic/version/endianness, flipped checksum or payload
// bytes, and checksum-valid section-length/count lies — must yield a clean
// error from the loader: never UB, never an OOM-sized allocation, never a
// partially-initialized Snapshot (the output is untouched on failure).
//
// The whole matrix runs through BOTH load paths — the zero-copy mmap path
// and the deep-copy path — because the mmap loader hands out views into the
// file bytes and a missed bounds check there is a wild pointer, not just a
// bad value. Split-container failure modes (missing/corrupt/mismatched
// shard files) are covered at the end, along with the view-lifetime
// contract (queries survive a move of the owning Snapshot).

#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/builders.h"
#include "snapshot/shard_runner.h"
#include "snapshot/snapshot.h"

namespace silkmoth {
namespace {

RawSets CorpusRaw() {
  return {
      {"alpha beta gamma", "delta epsilon"},
      {"alpha beta", "zeta eta theta iota"},
      {"gamma delta epsilon zeta"},
      {"kappa lambda mu"},
  };
}

/// Next 8-aligned payload position — mirrors the writer's AlignTo8, so the
/// tests can compute where an aligned array block starts.
size_t Align8(size_t payload_pos) { return (payload_pos + 7) / 8 * 8; }

class SnapshotCorruptionTest
    : public testing::TestWithParam<SnapshotLoadMode> {
 protected:
  void SetUp() override {
    Collection data = BuildCollection(CorpusRaw(), TokenizerKind::kWord);
    Snapshot snap = BuildSnapshot(std::move(data), TokenizerKind::kWord, 0,
                                  /*num_shards=*/2);
    path_ = testing::TempDir() + "/silkmoth_corruption_test.snap";
    ASSERT_EQ(SaveSnapshot(snap, path_), "");
    std::ifstream in(path_, std::ios::binary);
    pristine_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(pristine_.size(), kSnapshotHeaderSize);

    // The pristine file must load, or every "rejects corruption" assertion
    // below would be vacuous.
    Snapshot check;
    ASSERT_EQ(LoadSnapshot(path_, &check, GetParam()), "");
    ASSERT_EQ(check.num_shards(), 2u);
    ASSERT_EQ(check.data.sets.size(), 4u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Recomputes the header checksum over the (possibly doctored) payload, so
  /// mutations get past the CRC gate and must be caught by the structural
  /// bounds checks alone.
  static void FixCrc(std::string* bytes) {
    const uint32_t crc =
        SnapshotCrc32(bytes->data() + kSnapshotHeaderSize,
                      bytes->size() - kSnapshotHeaderSize);
    std::memcpy(bytes->data() + kSnapshotCrcOffset, &crc, 4);
  }

  static void FixPayloadLen(std::string* bytes) {
    const uint64_t len = bytes->size() - kSnapshotHeaderSize;
    std::memcpy(bytes->data() + kSnapshotPayloadLenOffset, &len, 8);
  }

  /// Writes `bytes` to disk and asserts the loader rejects them with an
  /// error mentioning `expect_substr`, leaving the output untouched.
  void ExpectRejected(const std::string& bytes,
                      const std::string& expect_substr) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    // Sentinel state: a failed load must not disturb any of it.
    Snapshot out;
    out.q = -42;
    out.tokenizer = TokenizerKind::kQGram;
    const std::string err = LoadSnapshot(path_, &out, GetParam());
    ASSERT_FALSE(err.empty()) << "corrupt snapshot loaded cleanly ("
                              << expect_substr << ")";
    EXPECT_NE(err.find(expect_substr), std::string::npos)
        << "unexpected error: " << err;
    EXPECT_EQ(out.q, -42) << "output modified by failed load";
    EXPECT_EQ(out.tokenizer, TokenizerKind::kQGram);
    EXPECT_TRUE(out.data.sets.empty());
    EXPECT_TRUE(out.shards.empty());
    EXPECT_TRUE(out.regions.empty());
    EXPECT_EQ(out.data.dict, nullptr);
  }

  /// Offset of a section's fourcc tag within the file (the binary tags
  /// cannot collide with the lowercase-ASCII corpus text).
  size_t FindSection(const char* fourcc) const {
    const size_t pos = pristine_.find(fourcc);
    EXPECT_NE(pos, std::string::npos);
    return pos;
  }

  /// Layout of the first SHRD section: file offsets of the offsets-count
  /// field, the offsets array, and the postings array (which follow the
  /// writer's 8-alignment discipline).
  struct ShrdLayout {
    size_t count_at;     ///< num_offsets u64.
    uint64_t count;      ///< Its pristine value.
    size_t offsets_at;   ///< First offsets entry.
    size_t postings_at;  ///< First posting.
  };
  ShrdLayout FirstShrd() const {
    ShrdLayout l;
    const size_t body = FindSection("SHRD") + 12;  // tag u32 + len u64.
    l.count_at = body + 12;  // shard/begin/end u32 each.
    std::memcpy(&l.count, pristine_.data() + l.count_at, 8);
    const size_t body_pay = body - kSnapshotHeaderSize;
    l.offsets_at = kSnapshotHeaderSize + Align8(body_pay + 20);
    // num_postings u64 sits right after the (8-aligned, 8-byte-entry)
    // offsets block; postings follow already aligned.
    l.postings_at =
        l.offsets_at + 8 * static_cast<size_t>(l.count) + 8;
    return l;
  }

  std::string path_;
  std::string pristine_;
};

TEST_P(SnapshotCorruptionTest, MissingFile) {
  Snapshot out;
  out.q = -42;
  const std::string err = LoadSnapshot(
      testing::TempDir() + "/no_such_snapshot.snap", &out, GetParam());
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
  EXPECT_EQ(out.q, -42);
}

TEST_P(SnapshotCorruptionTest, EmptyAndHeaderTruncatedFiles) {
  ExpectRejected("", "truncated header");
  ExpectRejected(pristine_.substr(0, 4), "truncated header");
  ExpectRejected(pristine_.substr(0, kSnapshotHeaderSize - 1),
                 "truncated header");
}

TEST_P(SnapshotCorruptionTest, BadMagic) {
  std::string bytes = pristine_;
  bytes[0] = 'X';
  ExpectRejected(bytes, "bad magic");
}

TEST_P(SnapshotCorruptionTest, UnsupportedVersion) {
  for (uint32_t version : {kSnapshotVersion + 1, 1u}) {  // v1 retired too.
    std::string bytes = pristine_;
    std::memcpy(bytes.data() + kSnapshotVersionOffset, &version, 4);
    ExpectRejected(bytes, "unsupported snapshot version");
  }
}

TEST_P(SnapshotCorruptionTest, EndiannessMismatch) {
  std::string bytes = pristine_;
  std::swap(bytes[kSnapshotEndianOffset], bytes[kSnapshotEndianOffset + 3]);
  ExpectRejected(bytes, "endianness mismatch");
}

TEST_P(SnapshotCorruptionTest, PayloadTruncationAndPadding) {
  // Cut at many points in the payload; every prefix must be rejected by the
  // length gate long before any parsing happens.
  for (size_t keep :
       {kSnapshotHeaderSize, kSnapshotHeaderSize + 1, pristine_.size() / 2,
        pristine_.size() - 8, pristine_.size() - 1}) {
    ExpectRejected(pristine_.substr(0, keep), "payload length mismatch");
  }
  ExpectRejected(pristine_ + "JUNK", "payload length mismatch");
}

TEST_P(SnapshotCorruptionTest, FlippedChecksumByte) {
  std::string bytes = pristine_;
  bytes[kSnapshotCrcOffset] ^= 0x5A;
  ExpectRejected(bytes, "checksum mismatch");
}

TEST_P(SnapshotCorruptionTest, FlippedPayloadBytes) {
  for (size_t at : {size_t{0}, pristine_.size() / 3, pristine_.size() - 2}) {
    std::string bytes = pristine_;
    bytes[kSnapshotHeaderSize + at % (bytes.size() - kSnapshotHeaderSize)] ^=
        0x01;
    ExpectRejected(bytes, "checksum mismatch");
  }
}

// From here on every mutation re-checksums, proving the structural bounds
// checks reject lies on their own (a forged CRC must not enable UB or OOM).

TEST_P(SnapshotCorruptionTest, SectionLengthLieHuge) {
  std::string bytes = pristine_;
  // META is the first section: its u64 body length sits right after the
  // 4-byte tag at the start of the payload.
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bytes.data() + kSnapshotHeaderSize + 4, &huge, 8);
  FixCrc(&bytes);
  ExpectRejected(bytes, "malformed META section");
}

TEST_P(SnapshotCorruptionTest, MetaNumSetsLie) {
  std::string bytes = pristine_;
  // META body layout: kind u32, tokenizer u32, q u32, num_sets u64, ...
  const uint64_t lie = uint64_t{1} << 40;
  std::memcpy(bytes.data() + kSnapshotHeaderSize + 12 + 12, &lie, 8);
  FixCrc(&bytes);
  // COLL records its own num_sets; the disagreement is the tell.
  ExpectRejected(bytes, "malformed COLL section");
}

TEST_P(SnapshotCorruptionTest, ZeroShardsRejected) {
  std::string bytes = pristine_;
  // META body: ..., num_shards u32 at offset 20 of the body.
  const uint32_t zero = 0;
  std::memcpy(bytes.data() + kSnapshotHeaderSize + 12 + 20, &zero, 4);
  FixCrc(&bytes);
  ExpectRejected(bytes, "malformed META section");
}

TEST_P(SnapshotCorruptionTest, DictCountLieDoesNotAllocate) {
  std::string bytes = pristine_;
  // DICT's body starts with the u64 token count; a huge checksum-valid lie
  // (would imply a multi-PiB offsets array) must be caught by the
  // remaining-bytes gate before any view or allocation is produced.
  const size_t count_at = FindSection("DICT") + 12;
  const uint64_t lie = uint64_t{1} << 50;
  std::memcpy(bytes.data() + count_at, &lie, 8);
  FixCrc(&bytes);
  ExpectRejected(bytes, "truncated DICT section");
}

TEST_P(SnapshotCorruptionTest, ShardTableNotAPartition) {
  std::string bytes = pristine_;
  // STAB body: num_shards u32, then (begin, end) u32 pairs. Shard 0's end
  // must equal shard 1's begin; nudging it tears the partition.
  const size_t stab_body = FindSection("STAB") + 12;
  uint32_t end0 = 0;
  std::memcpy(&end0, bytes.data() + stab_body + 8, 4);
  const uint32_t bogus = end0 + 1;
  std::memcpy(bytes.data() + stab_body + 8, &bogus, 4);
  FixCrc(&bytes);
  ExpectRejected(bytes, "malformed STAB section");
}

TEST_P(SnapshotCorruptionTest, OffsetsCountLieDoesNotAllocate) {
  std::string bytes = pristine_;
  const ShrdLayout l = FirstShrd();
  const uint64_t lie = uint64_t{1} << 55;  // Would be a 256 PiB allocation.
  std::memcpy(bytes.data() + l.count_at, &lie, 8);
  FixCrc(&bytes);
  ExpectRejected(bytes, "malformed SHRD section 0");
}

TEST_P(SnapshotCorruptionTest, InvalidCsrOffsets) {
  std::string bytes = pristine_;
  // First offsets entry must be 0; a checksum-valid nonzero value has to be
  // caught by CSR adoption's structural validation.
  const ShrdLayout l = FirstShrd();
  const uint64_t bogus = 12345;
  std::memcpy(bytes.data() + l.offsets_at, &bogus, 8);
  FixCrc(&bytes);
  ExpectRejected(bytes, "invalid CSR arrays in SHRD section 0");
}

TEST_P(SnapshotCorruptionTest, PostingValueLie) {
  std::string bytes = pristine_;
  // A checksum-valid posting pointing outside the shard's set range (or at
  // a nonexistent element) would be indexed unchecked by query code; the
  // loader's value gate must reject it.
  const ShrdLayout l = FirstShrd();
  const uint32_t bogus_set = 0xFFFFFF00u;
  std::memcpy(bytes.data() + l.postings_at, &bogus_set, 4);
  FixCrc(&bytes);
  ExpectRejected(bytes, "posting out of range in SHRD section 0");

  // Same gate for a plausible set id with an impossible element id.
  bytes = pristine_;
  const uint32_t bogus_elem = 0xFFFFFF00u;
  std::memcpy(bytes.data() + l.postings_at + 4, &bogus_elem, 4);
  FixCrc(&bytes);
  ExpectRejected(bytes, "posting out of range in SHRD section 0");
}

TEST_P(SnapshotCorruptionTest, UnsortedPostingsInList) {
  std::string bytes = pristine_;
  // Token 0 ("alpha") occurs in sets 0 and 1. With cost-balanced ranges the
  // corpus still puts both in shard 0 (verified by the pristine load in
  // SetUp), so the snapshot's first list is [{0,0},{1,0}]. Swapping the two
  // (checksum fixed) breaks the (set, elem) order ListInSet binary-searches;
  // writing the first over the second makes a duplicate. Both must be
  // rejected.
  const ShrdLayout l = FirstShrd();
  const uint32_t swapped[4] = {1, 0, 0, 0};  // {1,0} then {0,0}.
  std::memcpy(bytes.data() + l.postings_at, swapped, 16);
  FixCrc(&bytes);
  ExpectRejected(bytes, "unsorted or duplicate postings in SHRD section 0");

  bytes = pristine_;
  const uint32_t duplicated[4] = {0, 0, 0, 0};  // {0,0} twice.
  std::memcpy(bytes.data() + l.postings_at, duplicated, 16);
  FixCrc(&bytes);
  ExpectRejected(bytes, "unsorted or duplicate postings in SHRD section 0");
}

TEST_P(SnapshotCorruptionTest, TrailingGarbageAfterSections) {
  std::string bytes = pristine_ + std::string(16, '\0');
  FixPayloadLen(&bytes);
  FixCrc(&bytes);
  ExpectRejected(bytes, "trailing bytes after last section");
}

INSTANTIATE_TEST_SUITE_P(
    LoadModes, SnapshotCorruptionTest,
    testing::Values(SnapshotLoadMode::kMmap, SnapshotLoadMode::kCopy),
    [](const testing::TestParamInfo<SnapshotLoadMode>& info) {
      return info.param == SnapshotLoadMode::kMmap ? "mmap" : "copy";
    });

// --- Split-container failure modes -----------------------------------------

class SplitCorruptionTest : public testing::TestWithParam<SnapshotLoadMode> {
 protected:
  void SetUp() override {
    Collection data = BuildCollection(CorpusRaw(), TokenizerKind::kWord);
    Snapshot snap = BuildSnapshot(std::move(data), TokenizerKind::kWord, 0,
                                  /*num_shards=*/2);
    path_ = testing::TempDir() + "/silkmoth_split_corruption.snap";
    ASSERT_EQ(SaveSnapshotSplit(snap, path_), "");
    Snapshot check;
    ASSERT_EQ(LoadSnapshot(path_, &check, GetParam()), "");
    ASSERT_EQ(check.num_shards(), 2u);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    for (uint32_t s = 0; s < 2; ++s) {
      std::remove(SnapshotShardPath(path_, s).c_str());
    }
  }

  void ExpectRejected(const std::string& expect_substr) {
    Snapshot out;
    out.q = -42;
    const std::string err = LoadSnapshot(path_, &out, GetParam());
    ASSERT_FALSE(err.empty()) << "corrupt split snapshot loaded cleanly";
    EXPECT_NE(err.find(expect_substr), std::string::npos)
        << "unexpected error: " << err;
    EXPECT_EQ(out.q, -42) << "output modified by failed load";
  }

  std::string path_;
};

TEST_P(SplitCorruptionTest, MissingShardFileRejected) {
  ASSERT_EQ(std::remove(SnapshotShardPath(path_, 1).c_str()), 0);
  ExpectRejected("cannot open");
}

TEST_P(SplitCorruptionTest, CorruptShardFileRejected) {
  const std::string shard_path = SnapshotShardPath(path_, 0);
  std::ifstream in(shard_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() - 1] ^= 0x01;
  std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  ExpectRejected("checksum mismatch");
}

TEST_P(SplitCorruptionTest, ForeignShardFileRejected) {
  // A shard file from a *different build* (here: a different corpus) is
  // checksum-valid on its own; the binding CRC must refuse the mix.
  RawSets other_raw = {{"one two"}, {"three four"}, {"five six"}, {"seven"}};
  Collection other = BuildCollection(other_raw, TokenizerKind::kWord);
  Snapshot other_snap = BuildSnapshot(std::move(other), TokenizerKind::kWord,
                                      0, /*num_shards=*/2);
  const std::string other_path =
      testing::TempDir() + "/silkmoth_split_other.snap";
  ASSERT_EQ(SaveSnapshotSplit(other_snap, other_path), "");
  // Swap shard 0 in.
  {
    std::ifstream in(SnapshotShardPath(other_path, 0), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(SnapshotShardPath(path_, 0),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ExpectRejected("binding mismatch");
  std::remove(other_path.c_str());
  for (uint32_t s = 0; s < 2; ++s) {
    std::remove(SnapshotShardPath(other_path, s).c_str());
  }
}

TEST_P(SplitCorruptionTest, ShardFileLoadedDirectlyRejected) {
  Snapshot out;
  const std::string err =
      LoadSnapshot(SnapshotShardPath(path_, 0), &out, GetParam());
  EXPECT_NE(err.find("shard file"), std::string::npos) << err;
}

TEST_P(SplitCorruptionTest, NoTmpFilesLeftBehind) {
  // Atomic writes: the .tmp staging siblings must all be renamed away.
  for (const std::string p :
       {path_ + ".tmp", SnapshotShardPath(path_, 0) + ".tmp",
        SnapshotShardPath(path_, 1) + ".tmp"}) {
    std::ifstream in(p);
    EXPECT_FALSE(in.good()) << "leftover staging file " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoadModes, SplitCorruptionTest,
    testing::Values(SnapshotLoadMode::kMmap, SnapshotLoadMode::kCopy),
    [](const testing::TestParamInfo<SnapshotLoadMode>& info) {
      return info.param == SnapshotLoadMode::kMmap ? "mmap" : "copy";
    });

// --- View lifetime ----------------------------------------------------------

// The mmap loader's contract: views never dangle while their region lives,
// and moving the Snapshot moves the region without relocating the bytes —
// queries against the moved-to snapshot must keep working (ASan/UBSan turn
// any violation into a hard failure in CI).
TEST(SnapshotViewLifetime, QueriesSurviveSnapshotMove) {
  Collection data = BuildCollection(CorpusRaw(), TokenizerKind::kWord);
  Options opt;
  opt.delta = 0.3;
  opt.num_shards = 2;
  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok());
  const std::vector<PairMatch> expected = engine.DiscoverSelf();

  Snapshot built = BuildSnapshot(data, TokenizerKind::kWord, 0, 2);
  const std::string path =
      testing::TempDir() + "/silkmoth_view_lifetime.snap";
  ASSERT_EQ(SaveSnapshot(built, path), "");

  Snapshot loaded;
  ASSERT_EQ(LoadSnapshot(path, &loaded, SnapshotLoadMode::kMmap), "");
  std::remove(path.c_str());

  // Move the owning snapshot twice; the regions (and therefore every view)
  // must follow without invalidation.
  Snapshot moved = std::move(loaded);
  std::vector<Snapshot> home;
  home.push_back(std::move(moved));
  const Snapshot& snap = home.back();

  std::vector<ShardResult> results(2);
  for (int s = 0; s < 2; ++s) {
    results[s].shard = static_cast<uint32_t>(s);
    results[s].num_shards = 2;
    results[s].options = opt;
    results[s].pairs = DiscoverShardSelf(snap, s, opt, &results[s].stats);
  }
  std::vector<PairMatch> merged;
  ASSERT_EQ(MergeShardResults(results, &merged, nullptr), "");
  EXPECT_EQ(merged, expected);
}

}  // namespace
}  // namespace silkmoth
