#ifndef SILKMOTH_CORE_SEARCH_PASS_H_
#define SILKMOTH_CORE_SEARCH_PASS_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

namespace silkmoth {

struct QueryScratch;

/// One related set found for a reference.
struct SearchMatch {
  uint32_t set_id = 0;          ///< Index into the indexed collection.
  double matching_score = 0.0;  ///< |R ∩̃φα S|.
  double relatedness = 0.0;     ///< similar() or contain() value.

  /// Structural equality (id and exact scores).
  friend bool operator==(const SearchMatch&, const SearchMatch&) = default;
};

/// Sentinel for RunSearchPass's `exclude_set`: exclude nothing.
inline constexpr uint32_t kNoExclude = static_cast<uint32_t>(-1);

/// Runs one full search pass (Section 3): signature generation, candidate
/// selection + check filter, NN filter, verification. Results are sorted by
/// set id. `exclude_set` skips one set id (self-pairs in discovery mode);
/// pass kNoExclude to keep all.
///
/// The similarity for options.phi is resolved once per pass and handed to
/// every stage. `scratch` supplies the reusable epoch-stamped buffers the
/// filters run on; when null (what every engine path passes), the calling
/// thread's own scratch is used, reused across passes, references and
/// shards and trimmed with QueryScratch::ShrinkTo to `data`'s set count.
/// A caller-owned instance must not be shared between threads.
///
/// `scan_range` is the candidate universe `index` was built over (a shard's
/// set-id range). Signature-probed candidates are already confined to it
/// because the index holds no postings outside the range; the range only
/// steers the §7.3 no-valid-signature fallback, which scans sets directly
/// instead of going through the index. Callers with a full index keep the
/// default (everything).
///
/// `top_k`, when positive, switches the pass to top-k mode (KOIOS-style
/// early termination): verification keeps a running heap of the k best
/// matches, and once it is full the k-th-best relatedness becomes a
/// floating floor threaded into the verifier — candidates whose upper
/// bound cannot reach it are dropped (`heap_floor_rejects`) without any
/// matching bound or solve. The returned matches are exactly the k best
/// of the full result set, sorted best-first (relatedness descending, set
/// id ascending on ties) instead of by set id.
std::vector<SearchMatch> RunSearchPass(const SetRecord& ref,
                                       const Collection& data,
                                       const InvertedIndex& index,
                                       const Options& options,
                                       uint32_t exclude_set = kNoExclude,
                                       SearchStats* stats = nullptr,
                                       QueryScratch* scratch = nullptr,
                                       SetIdRange scan_range = {},
                                       size_t top_k = 0);

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_SEARCH_PASS_H_
