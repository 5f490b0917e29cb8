#ifndef SILKMOTH_BASELINE_FASTJOIN_H_
#define SILKMOTH_BASELINE_FASTJOIN_H_

#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "text/dataset.h"

namespace silkmoth {

/// FastJoin-style baseline (Wang et al. [25], the comparator of §8.5).
///
/// Reimplemented as the paper characterizes it: the combined *unweighted*
/// signature scheme for candidate generation, no check filter, no
/// nearest-neighbor filter, and no reduction-based verification. The paper's
/// COMBUNWEIGHTED configuration "simulates the signature scheme of FASTJOIN
/// but with different token types"; the original system used partition
/// tokens, which §8.5 credits for its remaining edge at very high α — that
/// difference is noted in EXPERIMENTS.md rather than reproduced.
///
/// FastJoin targets the approximate string matching problem only: it
/// supports SET-SIMILARITY with an edit similarity; other configurations are
/// rejected through ok()/error().
class FastJoin {
 public:
  FastJoin(const Collection* data, Options options);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const Options& options() const { return options_; }

  std::vector<SearchMatch> Search(const SetRecord& ref,
                                  ShardedSearchStats* stats = nullptr) const;
  std::vector<PairMatch> DiscoverSelf(
      ShardedSearchStats* stats = nullptr) const;

 private:
  SilkMoth engine_;
  Options options_;
  std::string error_;
};

}  // namespace silkmoth

#endif  // SILKMOTH_BASELINE_FASTJOIN_H_
