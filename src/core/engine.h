#ifndef SILKMOTH_CORE_ENGINE_H_
#define SILKMOTH_CORE_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/reference_block.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

/// The SilkMoth reproduction: engines, search pass, signature schemes,
/// filters, maximum-matching verification, and the supporting text, index,
/// and data-generation utilities.
namespace silkmoth {

/// One related pair found in discovery mode.
struct PairMatch {
  uint32_t ref_id = 0;          ///< Index into the reference collection.
  uint32_t set_id = 0;          ///< Index into the indexed collection.
  double matching_score = 0.0;  ///< |R ∩̃φα S|.
  double relatedness = 0.0;     ///< similar() or contain() value.

  /// Structural equality (ids and exact scores).
  friend bool operator==(const PairMatch&, const PairMatch&) = default;
};

/// Appends `p` as one pair-stream line: ref_id, set_id, matching score and
/// relatedness, tab-separated, scores with six decimals, newline-terminated.
/// Every pair stream the CLI prints and every serve kResult body goes
/// through here, so they are byte-identical by construction.
void AppendPairLine(std::string* out, const PairMatch& p);

/// Canonical discovery output order: ascending (ref_id, set_id). Every
/// discovery path sorts with this, which is what makes outputs comparable
/// byte-for-byte across shard and thread counts.
inline bool PairMatchIdLess(const PairMatch& a, const PairMatch& b) {
  if (a.ref_id != b.ref_id) return a.ref_id < b.ref_id;
  return a.set_id < b.set_id;
}

/// The SilkMoth engine (Section 3's framework) over Options::num_shards
/// index shards.
///
/// SilkMoth's search pass only needs an inverted index over the candidate
/// universe, so the indexed collection splits exactly: construction
/// partitions it into contiguous, cost-balanced set-id ranges
/// (ComputeShardRanges) and builds one CSR InvertedIndex per range
/// (postings keep global set ids; the token dictionary is the collection's,
/// shared by all shards). The default, one shard, is the paper's single
/// index. A reference is answered by streaming it through every shard's
/// index; ranges are disjoint and ascending, so the union is *exactly* the
/// single-index result, scores included (verification only ever looks at
/// the (reference, set) records, never the index). Output is independent
/// of the shard and thread counts.
///
/// Discovery runs through DiscoverAcrossShards (core/sharded_engine.h), the
/// one discovery driver every execution mode shares. Per-shard counters
/// land in ShardedSearchStats; single-index callers read Total(). A
/// non-null `stats` whose slot count differs from num_shards() is reset to
/// that shape first; one of the right shape keeps accumulating.
///
/// The engine holds a pointer to `data`, which must outlive it; the
/// collection and the indexes are immutable after construction, so all
/// query methods are const and thread-safe.
///
/// Usage:
///   Collection data = ...;                       // via datagen builders
///   Options opt;
///   opt.metric = Relatedness::kContainment;
///   opt.delta = 0.7;
///   SilkMoth engine(&data, opt);
///   auto matches = engine.Search(reference_set); // RELATED SET SEARCH
///   auto pairs = engine.DiscoverSelf();          // RELATED SET DISCOVERY
class SilkMoth {
 public:
  /// `data` must outlive the engine. Options are validated eagerly: invalid
  /// options are reported through ok()/error() and queries return empty.
  /// Shard indexes are built in parallel (up to options.num_threads
  /// builders). num_shards may exceed the set count; trailing shards are
  /// then empty and answer every query with no matches.
  SilkMoth(const Collection* data, Options options);

  /// True when construction validated the options; queries on a not-ok
  /// engine return empty results.
  bool ok() const { return error_.empty(); }
  /// Human-readable validation error ("" when ok()).
  const std::string& error() const { return error_; }
  /// The validated engine configuration.
  const Options& options() const { return options_; }
  /// The indexed collection (owned by the caller).
  const Collection& data() const { return *data_; }

  /// Number of shards built: options.num_shards, or 0 when the engine is
  /// not ok() (no shards exist then).
  size_t num_shards() const { return indexes_.size(); }
  /// Shard `shard`'s index (postings restricted to shard_range(shard)).
  const InvertedIndex& shard_index(size_t shard) const {
    return indexes_[shard];
  }
  /// Shard `shard`'s contiguous global set-id range (may be empty).
  SetIdRange shard_range(size_t shard) const { return ranges_[shard]; }
  /// Shard 0's index: the index over all of data() when num_shards() == 1;
  /// an empty index when the engine is not ok().
  const InvertedIndex& index() const;

  /// RELATED SET SEARCH (Problem 2): all sets related to `ref`, sorted by
  /// set id. The reference must be tokenized against the data collection's
  /// dictionary.
  std::vector<SearchMatch> Search(const SetRecord& ref,
                                  ShardedSearchStats* stats = nullptr) const;

  /// Extension: the k most related sets among those with relatedness >=
  /// options().delta, ordered by descending relatedness (ties broken by
  /// ascending set id). Output-identical to selecting the k best from the
  /// full Search result, but runs the pass in top-k mode: a running heap
  /// of the k best feeds its k-th-best score back into verification as a
  /// floating floor, so candidates provably outside the top k are dropped
  /// without a matching solve (`heap_floor_rejects` counts them). The floor
  /// is a single-index rule: on an engine with num_shards() > 1 this
  /// returns empty.
  std::vector<SearchMatch> SearchTopK(
      const SetRecord& ref, size_t k,
      ShardedSearchStats* stats = nullptr) const;

  /// RELATED SET DISCOVERY (Problem 1) across two collections: one search
  /// pass per (reference set, shard). Results sorted by (ref_id, set_id).
  std::vector<PairMatch> Discover(const Collection& refs,
                                  ShardedSearchStats* stats = nullptr) const;

  /// Block-granular discovery: streams exactly the references `block`
  /// selects — a self-join sub-range of the indexed collection or an
  /// external query collection tokenized against its dictionary (see
  /// core/reference_block.h). The full-collection self-join block is
  /// byte-identical to DiscoverSelf; external blocks additionally stamp
  /// the query_sets/oov_tokens counters. Self-join blocks must view this
  /// engine's own data collection.
  std::vector<PairMatch> Discover(const ReferenceBlock& block,
                                  ShardedSearchStats* stats = nullptr) const;

  /// Discovery within the indexed collection itself (R = S, the paper's
  /// string/schema matching setup). Self-pairs are skipped; under
  /// SET-SIMILARITY each unordered pair is reported once (ref_id < set_id);
  /// under SET-CONTAINMENT both directions are evaluated because the metric
  /// is asymmetric.
  std::vector<PairMatch> DiscoverSelf(
      ShardedSearchStats* stats = nullptr) const;

 private:
  /// Sizes a non-null `stats` to one slot per shard (see the class note).
  void PrepareStats(ShardedSearchStats* stats) const;

  const Collection* data_;
  Options options_;
  std::vector<SetIdRange> ranges_;      ///< Shard s's global set-id range.
  std::vector<InvertedIndex> indexes_;  ///< Shard s's index over ranges_[s].
  std::string error_;
};

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_ENGINE_H_
