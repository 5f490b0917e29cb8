#ifndef SILKMOTH_SNAPSHOT_SNAPSHOT_H_
#define SILKMOTH_SNAPSHOT_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "text/dataset.h"
#include "text/tokenizer.h"
#include "util/mmap_region.h"

namespace silkmoth {

/// Binary snapshot of a fully prepared corpus: everything an out-of-process
/// shard worker needs to run one shard's discovery with zero re-tokenization.
///
/// A snapshot holds the token dictionary, the tokenized collection, and one
/// CSR inverted index per shard (ComputeShardRanges partition, global set
/// ids). The on-disk container is versioned, checksummed, and flat: every
/// array — dictionary bytes, element text/token/chunk arenas, CSR offsets
/// and postings — is written as a contiguous 8-aligned block, so a loaded
/// file can serve queries *in place*: the mmap load path hands out
/// dictionary, element, and index views pointing straight into the mapped
/// region, with zero per-token, per-element, or per-posting copies (the
/// KVell-style "disk layout == memory layout" discipline taken to its
/// conclusion).
///
/// Ownership contract of a view-mode load: `regions` owns the mapped (or
/// fallback-read) bytes and every view in `data`/`shards` aliases them — a
/// view never outlives its region, so the Snapshot must stay alive (moves
/// are fine; the bytes do not relocate) for as long as any query runs
/// against it. Copy-mode loads materialize owned storage instead and keep
/// `regions` empty.
///
/// Container layout (all integers little-endian; docs/ARCHITECTURE.md has
/// the full table):
///
///   [0..8)    magic "SMSNAP01"
///   [8..12)   format version (u32, currently 3)
///   [12..16)  endianness marker (u32 0x01020304, raw bytes)
///   [16..24)  payload length in bytes (u64)
///   [24..28)  CRC-32 of the payload (u32)
///   [28..32)  reserved (zero) — pads the payload to an 8-aligned offset
///   [32..)    payload: sections tagged `u32 fourcc + u64 body length`.
///
/// A *monolithic* file carries META, DICT, COLL, STAB (shard table), then
/// one SHRD section per shard. `--split` production instead writes a
/// *common* file (META, DICT, COLL, STAB) plus one single-SHRD file per
/// shard, so a shard worker maps only common + its own shard; shard files
/// carry the common payload's CRC so mismatched generations refuse to load.
///
/// Integrity model: the CRC is the corruption gate — truncation, bit flips,
/// and length lies are all rejected with a clean error (every read is
/// bounds-checked and every count is validated against the remaining bytes
/// *before* any allocation, so even a forged checksum cannot cause
/// out-of-buffer reads or OOM at load time). Posting values are bounds-
/// checked against the shard range and per-set element counts too, because
/// query code indexes by them without further checks; element token ids are
/// only ever used as bounds-checked probe keys or opaque comparison values,
/// so they need no such gate. All checks run against the raw bytes before
/// any view is handed out, on both load paths.
struct Snapshot {
  /// One shard: its contiguous global set-id range and the CSR index over
  /// it. `loaded` is false for shards whose index was deliberately not
  /// loaded (LoadSnapshotShard loads exactly one) — their `range` is still
  /// valid, from the shard table.
  struct Shard {
    SetIdRange range;     ///< Global set ids this shard owns.
    InvertedIndex index;  ///< Postings restricted to `range`, global ids.
    bool loaded = false;  ///< True when `index` is actually present.
  };

  /// Tokenization the collection was built with. A shard worker must query
  /// with a compatible φ: word tokens serve Jaccard, q-grams serve the edit
  /// similarities — shard-run refuses mismatches instead of silently
  /// producing different results.
  TokenizerKind tokenizer = TokenizerKind::kWord;
  /// Effective q-gram length used at build time (0 for word tokens).
  int q = 0;
  /// Compaction lineage counter, recorded in META since format v3. A fresh
  /// `build` writes generation 1; each `compact` writes base.generation + 1.
  /// The serve daemon compares generations across hot-swaps to count
  /// compactions; discovery semantics never depend on it.
  uint64_t generation = 1;
  /// The tokenized collection, dictionary included.
  Collection data;
  /// Per-shard ranges and indexes; ranges partition [0, data.NumSets()).
  std::vector<Shard> shards;
  /// Backing bytes for view-mode loads (empty after BuildSnapshot or a
  /// copy-mode load). Every view in `data`/`shards` aliases these regions.
  std::vector<MmapRegion> regions;

  /// Shorthand for shards.size().
  size_t num_shards() const { return shards.size(); }
};

/// Snapshot container magic (first 8 bytes of every snapshot file).
inline constexpr char kSnapshotMagic[8] = {'S', 'M', 'S', 'N',
                                           'A', 'P', '0', '1'};
/// Current container format version. The version bumps whenever the payload
/// layout changes incompatibly; loaders reject any version they do not
/// know.
///
/// Version history:
///   1  (PR 3)  monolithic container; length-prefixed per-element records,
///              parsed into owned storage. No longer written or read.
///   2  (PR 4)  flat 8-aligned arenas servable in place (mmap load path),
///              STAB shard table, split common + per-shard containers,
///              32-byte header.
///   3  (PR 10) META carries a u64 generation counter recording compaction
///              lineage (build writes 1, compact writes base + 1).
inline constexpr uint32_t kSnapshotVersion = 3;
/// Little-endian detector: written as a native u32, so a snapshot moved to
/// an opposite-endian machine fails the marker check instead of loading
/// garbage.
inline constexpr uint32_t kSnapshotEndianMarker = 0x01020304u;
/// Header offset (bytes) of the format-version u32 — the header-field
/// offsets are exposed so tests can surgically corrupt specific fields.
inline constexpr size_t kSnapshotVersionOffset = 8;
/// Header offset (bytes) of the endianness marker u32.
inline constexpr size_t kSnapshotEndianOffset = 12;
/// Header offset (bytes) of the payload-length u64.
inline constexpr size_t kSnapshotPayloadLenOffset = 16;
/// Header offset (bytes) of the payload CRC-32 u32.
inline constexpr size_t kSnapshotCrcOffset = 24;
/// Total header size in bytes; the payload starts here, 8-aligned.
inline constexpr size_t kSnapshotHeaderSize = 32;

/// CRC-32 (reflected, polynomial 0xEDB88320) over `size` bytes. Exposed so
/// tests can craft checksum-valid-but-structurally-lying files and verify
/// the loader's bounds checks stand on their own.
uint32_t SnapshotCrc32(const void* data, size_t size);

/// How a loader makes the file's bytes available.
enum class SnapshotLoadMode {
  /// Map the file and serve queries out of the mapping, zero-copy (falls
  /// back to a read-into-buffer region on platforms without mmap — still
  /// zero-copy views, just buffer-backed). The Snapshot keeps the region.
  kMmap,
  /// Read and deep-copy into owned storage; the file can be deleted
  /// afterwards. The legacy (v1) load semantics and the bench baseline.
  kCopy,
};

/// Byte accounting for one load call — the observable proof that a
/// shard-local load of a split snapshot touches only common + its shard.
struct SnapshotLoadStats {
  uint64_t files = 0;         ///< Files opened (common + shard files).
  uint64_t bytes_mapped = 0;  ///< Bytes made visible via mmap.
  uint64_t bytes_copied = 0;  ///< Bytes read into owned buffers.

  /// Total bytes brought in from disk, whichever way.
  uint64_t BytesTouched() const { return bytes_mapped + bytes_copied; }
};

/// Builds a snapshot in memory: partitions [0, data.NumSets()) with the
/// canonical cost-balanced ComputeShardRanges(data, num_shards) and builds
/// each shard's CSR index (up to `num_threads` parallel builders).
/// `tokenizer`/`q` must describe how `data` was tokenized; they are
/// recorded for shard-run compatibility checks. num_shards must be >= 1.
Snapshot BuildSnapshot(Collection data, TokenizerKind tokenizer, int q,
                       uint32_t num_shards, int num_threads = 1);

/// Writes `snap` to `path` as one monolithic container. The write is
/// atomic: bytes go to a ".tmp" sibling first and rename into place, so a
/// crash mid-build can never leave a torn file at `path`. Every shard must
/// be loaded. `fault_site` names the SILKMOTH_FAULT site armed at commit
/// time ("snapshot-write" for build, "compact-write" for compaction), so
/// fault tests can target one publication path without disturbing the
/// other. Returns "" on success, else a one-line error.
std::string SaveSnapshot(const Snapshot& snap, const std::string& path,
                         const char* fault_site = "snapshot-write");

/// Writes `snap` split: one common container at `path` (dictionary +
/// collection + shard table) plus one container per shard at
/// SnapshotShardPath(path, k). Shard files are written (atomically) first
/// and the common file last, so a readable common file implies its shard
/// files are complete. Same `fault_site` contract as SaveSnapshot. Returns
/// "" on success, else a one-line error.
std::string SaveSnapshotSplit(const Snapshot& snap, const std::string& path,
                              const char* fault_site = "snapshot-write");

/// The on-disk name of shard `shard` of a split snapshot at `path`:
/// "<path>.shard<K>".
std::string SnapshotShardPath(const std::string& path, uint32_t shard);

/// Loads a snapshot from `path` into `*out` — the whole thing: a split
/// common file pulls in every shard file. Returns "" on success, else a
/// one-line error describing the failure (missing file, bad magic or
/// version, checksum mismatch, truncation, malformed section, ...); on
/// failure `*out` is left untouched. `stats`, when non-null, is filled on
/// success.
std::string LoadSnapshot(const std::string& path, Snapshot* out,
                         SnapshotLoadMode mode = SnapshotLoadMode::kMmap,
                         SnapshotLoadStats* stats = nullptr);

/// Shard-local load: only shard `shard`'s index is made queryable (other
/// shards keep their range with loaded == false). On a split snapshot this
/// opens exactly two files — common + that shard — so the bytes touched
/// scale with the shard, not the corpus; on a monolithic file the whole
/// container is read but only the one shard's index is built. Same error
/// contract as LoadSnapshot; a `shard` past the snapshot's shard count
/// (however large) is reported as out of range.
std::string LoadSnapshotShard(const std::string& path, uint64_t shard,
                              Snapshot* out,
                              SnapshotLoadMode mode = SnapshotLoadMode::kMmap,
                              SnapshotLoadStats* stats = nullptr);

}  // namespace silkmoth

#endif  // SILKMOTH_SNAPSHOT_SNAPSHOT_H_
