#ifndef SILKMOTH_INDEX_INVERTED_INDEX_H_
#define SILKMOTH_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "text/dataset.h"

namespace silkmoth {

/// One entry of an inverted list: which element of which set contains the
/// token. Ordered by (set, elem) so per-set ranges can be binary searched.
struct Posting {
  uint32_t set_id;   ///< Index of the containing set in the collection.
  uint32_t elem_id;  ///< Index of the containing element within the set.

  /// Structural equality.
  friend bool operator==(const Posting&, const Posting&) = default;
  /// Lexicographic (set, elem) order — the inverted-list sort order.
  friend auto operator<=>(const Posting&, const Posting&) = default;
};

/// A contiguous [begin, end) range of global set ids — the candidate
/// universe of one shard. The default value covers any collection. Ranges
/// are half-open and may be empty (begin == end).
struct SetIdRange {
  uint32_t begin = 0;                          ///< First set id (inclusive).
  uint32_t end = static_cast<uint32_t>(-1);    ///< Past-the-end set id.

  /// True when `set_id` lies inside the range.
  bool Contains(uint32_t set_id) const {
    return set_id >= begin && set_id < end;
  }
};

/// Inverted index over a Collection (Section 3 of the paper).
///
/// For each token t, List(t) yields the sorted, deduplicated postings of all
/// (set, element) pairs containing t. The index is immutable after Build and
/// safe to share across threads. Tokens interned after Build (e.g. from a
/// search reference not present in the data) simply have empty lists.
///
/// Storage is CSR (compressed sparse row): one contiguous postings array
/// plus a per-token offsets array. Probing k tokens touches k contiguous
/// ranges of one allocation instead of k separately heap-allocated vectors,
/// and ListSize is an O(1) offsets difference — the signature schemes call
/// it once per candidate token when ordering probes by frequency.
/// The index either owns its CSR arrays (Build / AdoptCsr) or borrows them
/// (AdoptCsrView, the zero-copy snapshot load path); all queries go through
/// the same non-owning spans, so the two modes are indistinguishable to
/// callers. A borrowing index must not outlive the memory it views. The
/// index is movable but not copyable (a copy of a view-backed index would
/// silently alias storage it has no stake in).
class InvertedIndex {
 public:
  /// An empty index; call Build before querying.
  InvertedIndex() = default;

  /// Not copyable: a copy of a view-backed index would alias borrowed
  /// storage without a stake in its lifetime.
  InvertedIndex(const InvertedIndex&) = delete;
  /// Not copy-assignable (see the copy constructor).
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  /// Move-constructs from `other`, leaving it empty.
  InvertedIndex(InvertedIndex&& other) noexcept { *this = std::move(other); }
  /// Moving transfers owned storage; spans stay valid because vector moves
  /// keep the heap buffer in place. The moved-from index is left empty.
  InvertedIndex& operator=(InvertedIndex&& other) noexcept {
    if (this != &other) {
      offsets_store_ = std::move(other.offsets_store_);
      postings_store_ = std::move(other.postings_store_);
      offsets_ = other.offsets_;
      postings_ = other.postings_;
      other.offsets_ = {};
      other.postings_ = {};
    }
    return *this;
  }

  /// Builds the index over `collection`. Any previous contents are replaced.
  void Build(const Collection& collection);

  /// Builds the index over the contiguous set-id range [begin_set, end_set)
  /// of `collection` only. Postings keep their *global* set ids, so the
  /// resulting index is a drop-in replacement for a full index whose
  /// candidate universe happens to be the range — this is the shard
  /// primitive behind engine shards. An empty range yields an empty index.
  void Build(const Collection& collection, uint32_t begin_set,
             uint32_t end_set);

  /// Postings of token t (empty span for unknown tokens).
  std::span<const Posting> List(TokenId t) const {
    if (static_cast<size_t>(t) + 1 >= offsets_.size()) return {};
    return {postings_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }

  /// |I[t]|: inverted list length; the signature schemes' token cost.
  size_t ListSize(TokenId t) const {
    if (static_cast<size_t>(t) + 1 >= offsets_.size()) return 0;
    return offsets_[t + 1] - offsets_[t];
  }

  /// Postings of token t restricted to set `set_id` (binary search).
  std::span<const Posting> ListInSet(TokenId t, uint32_t set_id) const;

  /// Number of token ids covered (>= max token id at Build time + 1).
  size_t NumTokens() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Sum of all list sizes.
  size_t TotalPostings() const { return postings_.size(); }

  /// The raw CSR offsets array (NumTokens() + 1 entries, or empty before
  /// Build). Exposed for bulk serialization — the snapshot subsystem writes
  /// this block verbatim and reloads it without per-posting parsing.
  std::span<const size_t> RawOffsets() const { return offsets_; }

  /// The raw concatenated postings array, in token-major (set, elem) order.
  /// The serialization companion of RawOffsets().
  std::span<const Posting> RawPostings() const { return postings_; }

  /// Adopts pre-built CSR arrays wholesale, taking ownership (the
  /// copy-mode snapshot load path). The arrays must form a valid CSR pair:
  /// either both empty, or offsets starting at 0, non-decreasing, and
  /// ending at postings.size(). Returns false and leaves the index empty
  /// when they do not — a corrupt snapshot must never produce a
  /// partially-initialized index.
  bool AdoptCsr(std::vector<size_t> offsets, std::vector<Posting> postings);

  /// Borrowed-memory variant of AdoptCsr: the index serves queries straight
  /// out of `offsets`/`postings` with zero copies (the mmap snapshot load
  /// path). Same structural validation and failure contract; the caller
  /// guarantees the viewed memory outlives the index's use.
  bool AdoptCsrView(std::span<const size_t> offsets,
                    std::span<const Posting> postings);

 private:
  /// Shared CSR-shape validation for both adoption paths.
  static bool ValidCsr(std::span<const size_t> offsets,
                       std::span<const Posting> postings);

  // Owned storage (empty when the index borrows) and the query-facing
  // views, which point either into the stores or into external memory.
  std::vector<Posting> postings_store_;
  std::vector<size_t> offsets_store_;
  std::span<const size_t> offsets_;    ///< Token t's list: [offsets_[t], offsets_[t+1]).
  std::span<const Posting> postings_;  ///< All lists, concatenated by token.
};

}  // namespace silkmoth

#endif  // SILKMOTH_INDEX_INVERTED_INDEX_H_
