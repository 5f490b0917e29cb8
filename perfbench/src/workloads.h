// The benchmark workloads. Each run builds its inputs from the seed,
// measures for the requested time, checks every answer, and reports either
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string cli_path;  ///< silkmoth_cli, for the serve daemon.
  std::string work_dir;  ///< Scratch space inside the checkout.
  /// Workload parameters from perfbench/config.json (the latency limit, and
  /// the recorded pair-stream digest for this seed when there is one).
  std::map<std::string, std::string> params;

  /// A numeric parameter; the key must be present.
  double Param(const std::string& key) const;
  std::string ParamString(const std::string& key) const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Check failures and tail labels.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Counts one checked operation; a failure is also noted.
  void Check(bool ok, const std::string& what);
};

/// Runs `cfg.workload`. Returns false (with `*err`) when the run could not
/// be carried out at all; answer mismatches are reported, not fatal, except
/// a traced replay that disagrees with the engine, which aborts.
bool RunWorkload(const RunConfig& cfg, RunReport* report, std::string* err);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
