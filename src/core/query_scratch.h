#ifndef SILKMOTH_CORE_QUERY_SCRATCH_H_
#define SILKMOTH_CORE_QUERY_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "filter/check_filter.h"

namespace silkmoth {

/// One probed best of the check filter: the maximum φ_α of reference
/// element `elem` over its probed matches in one candidate set. A
/// candidate's entries form a chain through `prev`, newest (highest `elem`)
/// first, ending at kNoBest.
struct BestEntry {
  uint32_t elem;  ///< Element index i of the reference.
  uint32_t prev;  ///< Next-older entry of the same candidate, or kNoBest.
  double best;    ///< max φ_α(r_i, s) over the probed matches s.
};

/// Reusable per-thread scratch space for one search pass.
///
/// The filter hot loops need three transient structures per query: set id →
/// candidate accumulator and the candidates' probed bests (candidate
/// selection, Algorithm 1), and element id → visited flag (NN search,
/// Section 5.2). Hash maps pay a hash + probe per posting and a fresh
/// allocation per query; this scratch replaces the maps with dense arrays
/// stamped by a monotonically increasing epoch, so "clearing" between
/// queries is one counter increment and a slot is live only when its stamp
/// equals the current epoch. Every candidate's bests share one flat arena,
/// `bests`, emptied (capacity kept) by BeginQuery. Arrays grow to the
/// collection's set count (and the largest probed set's element count) once
/// and are reused for every subsequent reference.
///
/// Candidates returned by the filters point into `bests`: they stay
/// readable until the next BeginQuery or ShrinkTo on the same scratch.
///
/// Not thread-safe; use one instance per thread.
struct QueryScratch {
  // --- Candidate accumulation (check filter) -------------------------------
  std::vector<uint64_t> set_epoch;     ///< Stamp per set id.
  std::vector<Candidate> set_cand;     ///< Accumulator slot per set id.
  std::vector<uint8_t> set_size_ok;    ///< Size-bound verdict per set id.
  std::vector<uint32_t> touched_sets;  ///< Set ids touched this query.
  std::vector<BestEntry> bests;        ///< Every candidate's best chain.
  uint64_t query_epoch = 0;

  // --- NN-search visited marks ---------------------------------------------
  std::vector<uint64_t> elem_epoch;  ///< Stamp per element id of probed set.
  uint64_t nn_epoch = 0;

  /// Starts a new query.
  void BeginQuery() {
    ++query_epoch;
    touched_sets.clear();
    bests.clear();
  }

  /// Appends (elem, best) in front of the chain starting at `head` and
  /// returns the new head.
  uint32_t PushBest(uint32_t elem, uint32_t head, double best) {
    bests.push_back({elem, head, best});
    return static_cast<uint32_t>(bests.size() - 1);
  }

  /// `cand`'s probed bests as (elem idx, max φ_α) in ascending elem order.
  /// The filters walk the chain in place; this copy is for tests and
  /// diagnostics.
  std::vector<std::pair<uint32_t, double>> BestsOf(const Candidate& cand)
      const {
    std::vector<std::pair<uint32_t, double>> out;
    for (uint32_t e = cand.head; e != kNoBest; e = bests[e].prev) {
      out.emplace_back(bests[e].elem, bests[e].best);
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  /// Marks `set_id` live for this query. Returns true on the first touch,
  /// when the caller must initialize the slot. Slot arrays grow lazily and
  /// geometrically up to the largest touched set id, so a one-shot scratch
  /// on a selective query never pays for the whole collection, and a
  /// persistent scratch reaches its steady-state size after a few queries.
  bool TouchSet(uint32_t set_id) {
    if (set_id >= set_epoch.size()) {
      const size_t n =
          std::max(set_epoch.size() * 2, static_cast<size_t>(set_id) + 1);
      set_epoch.resize(n, 0);
      set_cand.resize(n);
      set_size_ok.resize(n, 0);
    }
    if (set_epoch[set_id] == query_epoch) return false;
    set_epoch[set_id] = query_epoch;
    touched_sets.push_back(set_id);
    return true;
  }

  /// Starts a new NN search against a set of `num_elems` elements.
  void BeginNnSearch(size_t num_elems) {
    ++nn_epoch;
    if (elem_epoch.size() < num_elems) elem_epoch.resize(num_elems, 0);
  }

  /// Marks `elem_id` visited. Returns true on the first visit.
  bool VisitElem(uint32_t elem_id) {
    if (elem_epoch[elem_id] == nn_epoch) return false;
    elem_epoch[elem_id] = nn_epoch;
    return true;
  }

  /// Releases grossly oversized buffers. A long-lived scratch (e.g. the
  /// per-thread one behind SilkMoth::Search) grows to the largest collection
  /// it has ever served; when the collections being queried are much
  /// smaller, this re-allocates the arrays down so one huge query does not
  /// pin its memory for the thread's lifetime. Shrinking only happens after
  /// `kShrinkPatience` consecutive undersized queries (any query near the
  /// current size resets the vote), so a thread alternating between a large
  /// and a small collection does not thrash realloc+regrow on every call.
  /// Epochs keep counting — fresh zero stamps are always stale.
  void ShrinkTo(size_t num_sets) {
    constexpr size_t kFloorSlots = size_t{1} << 16;
    constexpr int kShrinkPatience = 16;
    const size_t cap = std::max(kFloorSlots, 4 * num_sets);
    if (set_epoch.size() <= cap) {
      shrink_votes_ = 0;
      return;
    }
    if (++shrink_votes_ < kShrinkPatience) return;
    shrink_votes_ = 0;
    std::vector<uint64_t>(num_sets, 0).swap(set_epoch);
    std::vector<Candidate>(num_sets).swap(set_cand);
    std::vector<uint8_t>(num_sets, 0).swap(set_size_ok);
    touched_sets.clear();
    touched_sets.shrink_to_fit();
    std::vector<BestEntry>().swap(bests);
    // elem_epoch is deliberately left alone: it is sized by the largest
    // probed set's element count (not the set universe), so it is small,
    // and judging it by a num_sets-derived cap would thrash workloads
    // whose collections legitimately contain one big set.
  }

 private:
  int shrink_votes_ = 0;  ///< Consecutive ShrinkTo calls wanting a shrink.
};

/// The calling thread's scratch: what every filter and RunSearchPass use
/// when the caller passes none. Reused across passes, references and
/// shards, so repeated passes pay the dense-array allocation once (epoch
/// stamping keeps stale state invisible, which makes cross-shard reuse
/// exactly as safe as cross-reference reuse).
inline QueryScratch& ThreadScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_QUERY_SCRATCH_H_
