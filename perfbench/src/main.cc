// perfbench_driver: runs one workload of the scale benchmark and prints one
// JSON line (metrics, answer-check counts, notes, build environment).
// perfbench/run.py builds this binary and turns that line into the report.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --cli PATH --work-dir DIR [--param KEY=VALUE ...]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli PATH --work-dir DIR [--param KEY=VALUE]...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions "
                       "enabled (build type %s); use Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; use "
                         "Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--cli") {
      cfg.cli_path = v;
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--param") {
      const size_t eq = v.find('=');
      if (eq == std::string::npos) return Usage();
      cfg.params[v.substr(0, eq)] = v.substr(eq + 1);
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || !have_seed || !(cfg.seconds > 0) ||
      cfg.cli_path.empty() || cfg.work_dir.empty()) {
    return Usage();
  }

  perfbench::RunReport rep;
  std::string err;
  if (!perfbench::RunWorkload(cfg, &rep, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 1;
  }
  if (rep.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  for (const perfbench::Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }

  std::string out = "{\"correct\": ";
  out += rep.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", rep.metrics[i].value);
    if (i > 0) out += ", ";
    out += JsonString(rep.metrics[i].name) + ": {\"value\": " + num +
           ", \"unit\": " + JsonString(rep.metrics[i].unit) + "}";
  }
  out += "}, \"notes\": [";
  for (size_t i = 0; i < rep.notes.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(rep.notes[i]);
  }
  out += "], \"env\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) + "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
