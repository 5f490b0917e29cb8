// Statistics and span arithmetic of the scale benchmark. Header-only and free
// of silkmoth dependencies so tests/metrics_test.cc can pin every rule here
// without building a workload.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(p/100 · n), clamped to [1, n]. 0 for an empty sample.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// A tail as the report states it: the percentile used, its value, and the
/// sample count it was taken from.
struct Tail {
  double percentile = 100.0;  ///< 100 means "the maximum" (see TailOf).
  double value = 0.0;
  size_t samples = 0;
};

/// The tail rule: the highest percentile of the ladder 99.99, 99.9, 99, 95,
/// 90, 75, 50 that still has at least `min_beyond` samples ranked above it.
/// A fixed ladder keeps the chosen percentile the same across runs of one
/// workload whose sample counts differ a little. When even the median has
/// fewer than `min_beyond` samples above it (a run of a few long operations,
/// such as whole self-joins), the tail is the maximum, reported as
/// percentile 100.
inline Tail TailOf(std::vector<double> samples, size_t min_beyond = 10) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= min_beyond) {
      t.percentile = p;
      t.value = samples[rank - 1];
      return t;
    }
  }
  t.percentile = 100.0;
  t.value = samples.back();
  return t;
}

/// Median (nearest-rank p50) of an unsorted sample.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 50.0);
}

/// One open-loop operation: when it was due, when the generator actually
/// started sending it, when its answer was decoded, and whether the answer
/// was a correct, complete one. Times are seconds on one steady clock.
struct OpenLoopOp {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;  ///< Meaningless when !answered.
  bool answered = false;  ///< A response frame came back at all.
  bool ok = false;        ///< ...and it was a correct, complete result.
};

/// Open-loop accounting for one phase.
struct OpenLoopSummary {
  size_t attempted = 0;
  size_t failed = 0;            ///< Refused, failed, unanswered or wrong.
  std::vector<double> latency;  ///< ms from *due* time, successful ops only.
  double late_ms_max = 0.0;     ///< Worst (sent - due).
  double late_share = 0.0;      ///< Share of ops sent > `late_tolerance_ms`
                                ///< after their due time.
  double slo_share = 0.0;       ///< Share of attempted ops that were ok and
                                ///< answered within the limit.
};

/// Summarizes a phase. Latency runs from the scheduled due time, not from
/// the actual send, so when the daemon (or the generator) stalls, every
/// request queued behind the stall is charged the wait it imposed. A failed
/// or unanswered operation is a miss for the latency limit.
inline OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopOp>& ops,
                                         double limit_ms,
                                         double late_tolerance_ms) {
  OpenLoopSummary s;
  s.attempted = ops.size();
  size_t late = 0;
  size_t within = 0;
  for (const OpenLoopOp& op : ops) {
    const double late_ms = (op.sent - op.due) * 1e3;
    s.late_ms_max = std::max(s.late_ms_max, late_ms);
    if (late_ms > late_tolerance_ms) ++late;
    if (!op.answered || !op.ok) {
      ++s.failed;
      continue;
    }
    const double ms = (op.done - op.due) * 1e3;
    s.latency.push_back(ms);
    if (ms <= limit_ms) ++within;
  }
  if (!ops.empty()) {
    s.late_share = static_cast<double>(late) / static_cast<double>(ops.size());
    s.slo_share =
        static_cast<double>(within) / static_cast<double>(ops.size());
  }
  return s;
}

/// One recorded span. `parent` indexes the same span vector (-1 for a root).
/// Spans of one request share `request`.
struct Span {
  uint32_t name = 0;   ///< Index into the caller's name table.
  int64_t parent = -1;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children are clipped
/// to the parent, and overlapping children are counted once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : k) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
