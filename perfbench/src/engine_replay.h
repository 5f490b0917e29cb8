// The traced replay of the engine's search pass, driven from outside the
// program through each module's public functions, plus the counting φ
// wrapper it passes to every stage.
#ifndef PERFBENCH_ENGINE_REPLAY_H_
#define PERFBENCH_ENGINE_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"
#include "text/similarity.h"
#include "trace.h"

namespace perfbench {

using silkmoth::Collection;
using silkmoth::SetRecord;

/// The engine's top-k order (search_pass.cc): higher relatedness first,
/// lower set id on ties.
bool IsBetterMatch(const silkmoth::SearchMatch& a,
                   const silkmoth::SearchMatch& b);

/// Pipeline stage a φ call is attributed to.
enum PhiStage { kPhiCheck = 0, kPhiNn = 1, kPhiVerify = 2, kPhiStages = 3 };

/// One recorded φ call, replayed later to time the kernel on real pairs.
struct PhiCall {
  silkmoth::Element a;
  silkmoth::Element b;
  double alpha = 0.0;
  bool thresholded = false;
};

/// Per-thread φ accounting. `sample` collects the calls of the current
/// reference when `recording` is set, up to `sample_cap` per stage.
struct PhiTally {
  uint64_t calls[kPhiStages] = {0, 0, 0};
  uint64_t nonzero[kPhiStages] = {0, 0, 0};
  bool recording = false;
  size_t sample_cap = 0;
  std::vector<PhiCall> sample[kPhiStages];

  void Merge(const PhiTally& o);
};

/// ElementSimilarity wrapper passed as `sim` to every stage of the replay.
/// It forwards kind() and HasMetricDual() so reduction activation and
/// identity keys are unchanged, and counts each call against the stage the
/// calling thread is in (set by the replay).
class TracingSimilarity final : public silkmoth::ElementSimilarity {
 public:
  explicit TracingSimilarity(const silkmoth::ElementSimilarity* inner)
      : inner_(inner) {}

  silkmoth::SimilarityKind kind() const override { return inner_->kind(); }
  bool HasMetricDual() const override { return inner_->HasMetricDual(); }
  double Score(const silkmoth::Element& a,
               const silkmoth::Element& b) const override;
  double ScoreThresholded(const silkmoth::Element& a,
                          const silkmoth::Element& b,
                          double alpha) const override;

  /// Points the calling thread's counting at `tally` and `stage`.
  static void Bind(PhiTally* tally);
  static void SetStage(PhiStage stage);

 private:
  const silkmoth::ElementSimilarity* inner_;
};

/// Counters of the replayed passes that SearchStats does not carry.
struct ReplayExtras {
  uint64_t postings_scanned = 0;
  uint64_t nn_searches = 0;
  uint64_t early_terminations = 0;
  uint64_t matrix_cells = 0;

  void Merge(const ReplayExtras& o) {
    postings_scanned += o.postings_scanned;
    nn_searches += o.nn_searches;
    early_terminations += o.early_terminations;
    matrix_cells += o.matrix_cells;
  }
};

/// What to replay: the references, how each is excluded, and top-k.
struct ReplayPlan {
  const Collection* data = nullptr;
  const silkmoth::InvertedIndex* index = nullptr;
  silkmoth::Options options;
  std::vector<const SetRecord*> refs;
  bool self_join = false;  ///< Reference i excludes set i (DiscoverSelf).
  size_t top_k = 0;        ///< SearchTopK when > 0.
  int threads = 4;
  size_t sample_stride = 64;  ///< References with i % stride == 0 feed the
                              ///< φ sample.
  size_t sample_cap = 4096;   ///< Recorded φ calls per stage per thread.
};

/// Outcome of a replay sweep.
struct ReplayResult {
  bool equal = true;       ///< Every reference matched the engine exactly.
  std::string mismatch;    ///< First difference, when !equal.
  silkmoth::SearchStats stats;  ///< Replay counters (== the engine's).
  ReplayExtras extras;
  PhiTally phi;
  std::vector<double> engine_ref_seconds;  ///< Untraced engine, per ref.
  double engine_seconds = 0.0;  ///< Sum of untraced engine pass times.
  double replay_seconds = 0.0;  ///< Sum of traced replay pass times.
  double phi_ns[kPhiStages] = {0, 0, 0};  ///< Kernel cost on the sample.
};

/// For every reference: runs the engine's RunSearchPass (no spans; its wall
/// time is recorded per reference) and the traced replay, in alternating
/// order, and compares matches and every SearchStats counter. Spans go into
/// `log`; the spans of reference i carry request id i + 1 (0 marks spans
/// outside any request).
ReplayResult ReplaySweep(const ReplayPlan& plan, TraceLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_REPLAY_H_
