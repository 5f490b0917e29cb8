// Figure 8 reproduction: SilkMoth vs the FastJoin-style baseline on the
// approximate string matching application (Section 8.5). Left: θ sweep at
// α = 0.8. Right: α sweep at θ(δ) = 0.8.
//
// Expected shape (paper): SILKMOTH <= FASTJOIN everywhere, with gaps up to
// ~13x at lower α, converging as α grows (the baseline's signature becomes
// competitive when the sim-thresh cut dominates).

#include <iostream>

#include "baseline/fastjoin.h"
#include "bench_common.h"

namespace {

using namespace silkmoth;
using namespace silkmoth::bench;

RunResult RunFastJoin(const Workload& w) {
  RunResult r;
  FastJoin baseline(&w.data, w.options);
  if (!baseline.ok()) {
    std::fprintf(stderr, "fastjoin: %s\n", baseline.error().c_str());
    return r;
  }
  WallTimer timer;
  ShardedSearchStats stats;
  r.results = baseline.DiscoverSelf(&stats).size();
  r.seconds = timer.ElapsedSeconds();
  r.stats = stats.Total();
  return r;
}

void Sweep(const char* title, const std::vector<double>& deltas,
           const std::vector<double>& alphas) {
  std::cout << "--- " << title << " ---\n";
  TablePrinter table({"delta", "alpha", "system", "time(s)", "verifications",
                      "results", "agree"});
  for (double delta : deltas) {
    for (double alpha : alphas) {
      // Rebuild per α: the q-gram length follows α (footnote 11).
      Workload w = StringMatchingWorkload(Scaled(500), delta, alpha);
      const RunResult sm = RunSilkMoth(w);
      const RunResult fj = RunFastJoin(w);
      const char* agree = sm.results == fj.results ? "yes" : "NO!";
      table.AddRow({TablePrinter::Num(delta, 2), TablePrinter::Num(alpha, 2),
                    "SILKMOTH", TablePrinter::Num(sm.seconds, 3),
                    TablePrinter::Int(
                        static_cast<long long>(sm.stats.verifications)),
                    TablePrinter::Int(static_cast<long long>(sm.results)),
                    agree});
      table.AddRow({TablePrinter::Num(delta, 2), TablePrinter::Num(alpha, 2),
                    "FASTJOIN", TablePrinter::Num(fj.seconds, 3),
                    TablePrinter::Int(
                        static_cast<long long>(fj.stats.verifications)),
                    TablePrinter::Int(static_cast<long long>(fj.results)),
                    agree});
    }
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  PrintHeader("Figure 8", "SilkMoth vs FastJoin (string matching)");
  Sweep("8 left: varying theta (alpha=0.8)", {0.7, 0.75, 0.8, 0.85}, {0.8});
  Sweep("8 right: varying alpha (theta=0.8)", {0.8}, {0.7, 0.75, 0.8, 0.85});
  return 0;
}
