#include "baseline/fastjoin.h"

namespace silkmoth {
namespace {

Options FastJoinOptions(Options options) {
  options.scheme = SignatureSchemeKind::kCombUnweighted;
  options.check_filter = false;
  options.nn_filter = false;
  options.reduction = false;
  return options;
}

}  // namespace

FastJoin::FastJoin(const Collection* data, Options options)
    : engine_(data, FastJoinOptions(options)),
      options_(FastJoinOptions(options)) {
  error_ = engine_.error();
  if (error_.empty() && options_.metric != Relatedness::kSimilarity) {
    error_ = "FastJoin supports SET-SIMILARITY only";
  }
  if (error_.empty() && !IsEditSimilarity(options_.phi)) {
    error_ = "FastJoin supports edit similarity only";
  }
}

std::vector<SearchMatch> FastJoin::Search(const SetRecord& ref,
                                          ShardedSearchStats* stats) const {
  if (!ok()) return {};
  return engine_.Search(ref, stats);
}

std::vector<PairMatch> FastJoin::DiscoverSelf(
    ShardedSearchStats* stats) const {
  if (!ok()) return {};
  return engine_.DiscoverSelf(stats);
}

}  // namespace silkmoth
