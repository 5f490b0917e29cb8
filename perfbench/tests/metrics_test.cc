// Unit tests of the benchmark's own statistics: the tail rule, open-loop
// due-time accounting, SLO misses, and span self-time arithmetic.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <vector>

#include "metrics.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  // n = 2000: p99 is rank 1980 with 20 beyond; p99.9 would leave 2.
  const Tail t = TailOf(Iota(2000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 1980.0);
  EXPECT_EQ(t.samples, 2000u);
}

TEST(TailRule, ExactlyTenBeyondQualifies) {
  // n = 1000: p99 is rank 990, exactly 10 samples beyond it.
  const Tail t = TailOf(Iota(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  // n = 999: p99 is rank 990 with 9 beyond, so p95 (rank 950).
  const Tail u = TailOf(Iota(999));
  EXPECT_EQ(u.percentile, 95.0);
  EXPECT_EQ(u.value, 950.0);
}

TEST(TailRule, OrderDoesNotMatterAndLargeSamplesReachDeepPercentiles) {
  std::vector<double> v = Iota(200000);
  std::reverse(v.begin(), v.end());
  const Tail t = TailOf(v);
  EXPECT_EQ(t.percentile, 99.99);
  EXPECT_EQ(t.value, 199980.0);
}

TEST(TailRule, FewSamplesFallBackToTheMaximum) {
  const Tail t = TailOf({4.0, 9.0, 5.0, 6.0});
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 9.0);
  EXPECT_EQ(t.samples, 4u);
  EXPECT_EQ(TailOf({}).value, 0.0);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_EQ(PercentileSorted(v, 50), 2.0);
  EXPECT_EQ(PercentileSorted(v, 51), 3.0);
  EXPECT_EQ(PercentileSorted(v, 0), 1.0);
  EXPECT_EQ(PercentileSorted(v, 100), 4.0);
  EXPECT_EQ(Median({5, 1, 3}), 3.0);
}

OpenLoopOp Op(double due, double sent, double done, bool ok = true) {
  return OpenLoopOp{due, sent, done, true, ok};
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  // Due every 10 ms; the generator sent each on time and service took 2 ms.
  std::vector<OpenLoopOp> ops;
  for (int i = 0; i < 5; ++i) ops.push_back(Op(i * 0.010, i * 0.010, i * 0.010 + 0.002));
  const OpenLoopSummary s = SummarizeOpenLoop(ops, 5.0, 1.0);
  ASSERT_EQ(s.latency.size(), 5u);
  for (double ms : s.latency) EXPECT_NEAR(ms, 2.0, 1e-9);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_NEAR(s.slo_share, 1.0, 1e-12);
  EXPECT_NEAR(s.late_ms_max, 0.0, 1e-9);
}

TEST(OpenLoop, AStallIsChargedToTheRequestsQueuedBehindIt) {
  // The daemon stalls 100 ms on request 0. Requests 1..3 were due at 10,
  // 20, 30 ms but the blocked generator only got them out at 100 ms, and
  // they complete 1 ms after that. Measured from the send they would look
  // fast; measured from the due time each carries the wait.
  std::vector<OpenLoopOp> ops = {Op(0.000, 0.000, 0.101), Op(0.010, 0.100, 0.101),
                                 Op(0.020, 0.100, 0.101), Op(0.030, 0.100, 0.101)};
  const OpenLoopSummary s = SummarizeOpenLoop(ops, 50.0, 1.0);
  ASSERT_EQ(s.latency.size(), 4u);
  EXPECT_NEAR(s.latency[0], 101.0, 1e-9);
  EXPECT_NEAR(s.latency[1], 91.0, 1e-9);
  EXPECT_NEAR(s.latency[2], 81.0, 1e-9);
  EXPECT_NEAR(s.latency[3], 71.0, 1e-9);
  EXPECT_NEAR(s.late_ms_max, 90.0, 1e-9);
  EXPECT_NEAR(s.late_share, 0.75, 1e-12);
  EXPECT_NEAR(s.slo_share, 0.0, 1e-12);
}

TEST(OpenLoop, RefusedAndFailedOperationsAreSloMisses) {
  std::vector<OpenLoopOp> ops = {Op(0, 0, 0.001), Op(0.01, 0.01, 0.011, false),
                                 Op(0.02, 0.02, 0.021)};
  OpenLoopOp unanswered;
  unanswered.due = unanswered.sent = 0.03;
  ops.push_back(unanswered);
  const OpenLoopSummary s = SummarizeOpenLoop(ops, 5.0, 1.0);
  EXPECT_EQ(s.attempted, 4u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.latency.size(), 2u);  // Only successful ops carry a latency.
  EXPECT_NEAR(s.slo_share, 0.5, 1e-12);
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  // pass [0,100) with children sig [10,20) and check [20,50); check has a
  // child [30,40). verify [45,60) overlaps check and sticks out of nothing.
  std::vector<Span> spans = {
      {0, -1, 1, 0, 100}, {1, 0, 1, 10, 20}, {2, 0, 1, 20, 50},
      {3, 2, 1, 30, 40},  {4, 0, 1, 45, 60}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50);  // Children cover [10,60) once.
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 15);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  std::vector<Span> spans = {{0, -1, 1, 100, 200}, {1, 0, 1, 50, 120},
                             {1, 0, 1, 190, 260}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
}

}  // namespace
}  // namespace perfbench
