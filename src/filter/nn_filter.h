#ifndef SILKMOTH_FILTER_NN_FILTER_H_
#define SILKMOTH_FILTER_NN_FILTER_H_

#include <vector>

#include "core/options.h"
#include "filter/check_filter.h"
#include "index/inverted_index.h"
#include "sig/signature.h"
#include "text/dataset.h"

namespace silkmoth {

struct QueryScratch;
class ElementSimilarity;

/// Counters for the nearest-neighbor filter stage.
struct NnFilterStats {
  size_t nn_searches = 0;        ///< Indexed NN searches performed.
  size_t similarity_calls = 0;   ///< φ evaluations inside NN searches.
  size_t early_terminations = 0; ///< Candidates pruned before all searches.
  size_t nn_filtered = 0;        ///< Candidates pruned by this filter.
};

/// Nearest-neighbor similarity of `r_elem` within set `set_id`: max over s
/// in that set of φ_α(r_elem, s). Only elements sharing a token with r_elem
/// are scored; the rest have φ = 0 under Jaccard, and under Eds/NEds at
/// most |r|/(|r|+g) with g r's q-chunk count, which is folded in as a floor
/// (Section 5.2, 7.1). The value is exact for Jaccard and a tight upper
/// bound for the edit similarities, which is all the NN filter needs.
///
/// NnSearch picks, per (r, S), the cheaper of two ways to find those
/// elements (NnScanIsCheaper):
///  - NnSearchProbe binary-searches each of r's token lists for S's
///    postings (InvertedIndex::ListInSet), marking visited elements in
///    `scratch` (null: the calling thread's scratch). It suits large S with
///    selective tokens, e.g. web-table columns.
///  - NnSearchScan walks S's elements and merges each one's sorted token
///    list with r's. It suits small S whose tokens have long lists, e.g.
///    q-grams of title words.
/// Both return bit-identical values. Only `similarity_calls` may differ:
/// the search stops at φ = 1, and the two visit S in different orders.
/// `sim` is the resolved similarity for `options.phi` (looked up internally
/// when null).
double NnSearch(const Element& r_elem, uint32_t set_id,
                const Collection& data, const InvertedIndex& index,
                const Options& options, NnFilterStats* stats = nullptr,
                const ElementSimilarity* sim = nullptr,
                QueryScratch* scratch = nullptr);

/// NnSearch through the inverted index (see NnSearch).
double NnSearchProbe(const Element& r_elem, uint32_t set_id,
                     const Collection& data, const InvertedIndex& index,
                     const Options& options, NnFilterStats* stats = nullptr,
                     const ElementSimilarity* sim = nullptr,
                     QueryScratch* scratch = nullptr);

/// NnSearch by scanning the set's elements (see NnSearch).
double NnSearchScan(const Element& r_elem, uint32_t set_id,
                    const Collection& data, const Options& options,
                    NnFilterStats* stats = nullptr,
                    const ElementSimilarity* sim = nullptr);

/// NnSearch's choice: true when scanning a set of `set_size` elements is
/// estimated cheaper than probing. Probing costs Σ over r's tokens t of
/// 2·(bit_width(|I[t]|) + 1), two binary searches per token; scanning costs
/// set_size·(|r.tokens| + 2), one merge per element. O(|r.tokens|).
bool NnScanIsCheaper(const Element& r_elem, size_t set_size,
                     const InvertedIndex& index);

/// Nearest-neighbor filter (Algorithm 2, extended per Section 6.5).
///
/// For each candidate, builds the total estimate
///   Σ_i est_i,  est_i = best probed φ_α  if it reaches miss_bound[i]
///                       (computation reuse: that value IS the exact NN),
///               miss_bound[i] otherwise,
/// then replaces the remaining estimates with exact NN similarities one
/// element at a time, early-terminating as soon as the total drops below θ.
/// Candidates whose final total stays >= θ survive.
///
/// `candidates` must come from SelectAndCheckCandidates (or AllCandidates)
/// and `scratch` must be the scratch that selected them (null: the calling
/// thread's scratch), whose best arena still holds their bests. The
/// survivors keep pointing into it.
std::vector<Candidate> NnFilterCandidates(
    const SetRecord& ref, const Signature& sig,
    std::vector<Candidate> candidates, const Collection& data,
    const InvertedIndex& index, const Options& options,
    NnFilterStats* stats = nullptr, const ElementSimilarity* sim = nullptr,
    QueryScratch* scratch = nullptr);

}  // namespace silkmoth

#endif  // SILKMOTH_FILTER_NN_FILTER_H_
