#include "snapshot/shard_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "core/sharded_engine.h"
#include "text/similarity.h"
#include "util/atomic_file_writer.h"
#include "util/fault_injection.h"

namespace silkmoth {
namespace {

// Version 5: adds the tier2_accepts/heap_floor_rejects/reporting_solves
// verification counters (the stats block requires every counter in fixed
// order, so new counters are a format change). Version 4 added the `range`
// line — the shard's global set-id range, so a partial (degraded-mode)
// merge can stamp exactly which set-id ranges its output covers. Version 3
// added the reference-payload line (self-join vs external query, with the
// query payload hash) and the query_sets/oov_tokens counters. Version 2
// added the exact_scores flag to the options fingerprint and the
// bound_only_scores counter (both output-affecting).
constexpr char kResultHeader[] = "silkmoth-shard-result 5";

bool ParseRelatedness(const char* name, Relatedness* out) {
  for (Relatedness m :
       {Relatedness::kSimilarity, Relatedness::kContainment}) {
    if (std::strcmp(name, RelatednessName(m)) == 0) {
      *out = m;
      return true;
    }
  }
  return false;
}

bool ParseSimilarityKind(const char* name, SimilarityKind* out) {
  for (SimilarityKind k : {SimilarityKind::kJaccard, SimilarityKind::kEds,
                           SimilarityKind::kNeds}) {
    if (std::strcmp(name, SimilarityKindName(k)) == 0) {
      *out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string CheckSnapshotCompatible(const Snapshot& snap,
                                    const Options& options) {
  const bool need_qgrams = IsEditSimilarity(options.phi);
  const bool has_qgrams = snap.tokenizer == TokenizerKind::kQGram;
  if (need_qgrams != has_qgrams) {
    return std::string("snapshot was built with ") +
           (has_qgrams ? "q-gram" : "word") + " tokens but --phi " +
           SimilarityKindName(options.phi) + " needs " +
           (need_qgrams ? "q-gram" : "word") + " tokens; rebuild the "
           "snapshot with a matching --phi";
  }
  if (need_qgrams && options.EffectiveQ() != snap.q) {
    return "snapshot was built with q=" + std::to_string(snap.q) +
           " but the requested options resolve to q=" +
           std::to_string(options.EffectiveQ()) +
           "; pass a matching --q (or rebuild the snapshot)";
  }
  return "";
}

namespace {

// Shared single-shard driver behind DiscoverShardSelf/DiscoverShardAgainst:
// runs the in-process DiscoverAcrossShards over a one-shard span, so the
// parity-critical loop (exclusion, dedup, chunking, sort) is literally the
// same code the SilkMoth engine runs and the two modes cannot drift.
std::vector<PairMatch> DiscoverShardBlock(const Snapshot& snap, size_t shard,
                                          const ReferenceBlock& block,
                                          const Options& options,
                                          SearchStats* stats) {
  if (shard >= snap.shards.size()) return {};
  const Snapshot::Shard& sh = snap.shards[shard];
  // A shard whose index was not loaded (LoadSnapshotShard loads exactly
  // one) must not run against an empty index and silently return nothing
  // real; callers select the loaded shard.
  if (!sh.loaded) return {};
  // Empty shards run zero passes and touch no stats, exactly like the
  // in-process engine skipping them.
  if (sh.range.begin == sh.range.end) return {};

  const ShardView view{sh.range, &sh.index};
  ShardedSearchStats local;
  local.Reset(1);
  std::vector<PairMatch> pairs = DiscoverAcrossShards(
      block, snap.data, std::span<const ShardView>(&view, 1), options,
      stats != nullptr ? &local : nullptr);
  if (stats != nullptr) stats->Merge(local.per_shard[0]);
  return pairs;
}

}  // namespace

std::vector<PairMatch> DiscoverShardSelf(const Snapshot& snap, size_t shard,
                                         const Options& options,
                                         SearchStats* stats) {
  return DiscoverShardBlock(snap, shard, ReferenceBlock::SelfJoin(snap.data),
                            options, stats);
}

std::vector<PairMatch> DiscoverShardAgainst(const Snapshot& snap,
                                            size_t shard,
                                            const ReferenceBlock& block,
                                            const Options& options,
                                            SearchStats* stats) {
  // A self-join block routed through the query entry point would silently
  // apply exclusion/dedup semantics the caller did not ask for.
  if (block.self_join) return {};
  return DiscoverShardBlock(snap, shard, block, options, stats);
}

std::string SaveShardResult(const ShardResult& result,
                            const std::string& path) {
  // The whole result is serialized in memory first and published through
  // AtomicFileWriter: a crashed or failed save can never leave a torn file
  // at `path` — which is exactly what makes orchestrator retries safe to
  // run over a previous attempt's output.
  std::string body;
  body.reserve(256 + result.pairs.size() * 48);
  char buf[192];
  body += kResultHeader;
  body += '\n';
  std::snprintf(buf, sizeof(buf), "shard %" PRIu32 " of %" PRIu32 "\n",
                result.shard, result.num_shards);
  body += buf;
  std::snprintf(buf, sizeof(buf), "range %" PRIu32 " %" PRIu32 "\n",
                result.range.begin, result.range.end);
  body += buf;
  std::snprintf(buf, sizeof(buf), "options %s %s %.17g %.17g %d %d\n",
                RelatednessName(result.options.metric),
                SimilarityKindName(result.options.phi), result.options.delta,
                result.options.alpha, result.options.EffectiveQ(),
                result.options.exact_scores ? 1 : 0);
  body += buf;
  // The reference payload the shard streamed: the snapshot's own collection
  // (self-join) or an external query payload, pinned by its content hash so
  // merge can refuse streams produced against different queries.
  if (result.query_mode) {
    std::snprintf(buf, sizeof(buf), "reference query %016" PRIx64 "\n",
                  result.query_hash);
    body += buf;
  } else {
    body += "reference self\n";
  }
  // Every counter and timer of the stats table, in table order. Load
  // requires them all, so a missing or unknown counter is a format error.
  for (const CounterField& f : kSearchCounters) {
    std::snprintf(buf, sizeof(buf), "stat %s %zu\n", f.name,
                  result.stats.*(f.member));
    body += buf;
  }
  for (const SecondsField& f : kSearchSeconds) {
    std::snprintf(buf, sizeof(buf), "statf %s %.17g\n", f.name,
                  result.stats.*(f.member));
    body += buf;
  }
  std::snprintf(buf, sizeof(buf), "pairs %zu\n", result.pairs.size());
  body += buf;
  for (const PairMatch& p : result.pairs) {
    // Fault-injection site: `result-pair:abort:0:K` crashes the worker
    // after serializing K-1 results — the abort-after-k-results shape.
    fault::Hit("result-pair");
    // %.17g round-trips doubles exactly, so merge re-emits the very same
    // values the shard process computed.
    std::snprintf(buf, sizeof(buf), "%" PRIu32 "\t%" PRIu32 "\t%.17g\t%.17g\n",
                  p.ref_id, p.set_id, p.matching_score, p.relatedness);
    body += buf;
  }
  body += "end\n";

  AtomicFileWriter writer(path, "result-write");
  std::string err = writer.Open();
  if (err.empty()) err = writer.Write(body);
  if (err.empty()) err = writer.Commit();
  return err;
}

std::string LoadShardResult(const std::string& path, ShardResult* out) {
  // Read-into-memory through the hardened loop (EINTR/short-read safe),
  // then parse lines from the buffer — one I/O path, one injection point.
  std::string text;
  const std::string read_err = ReadFileToString(path, &text, "result-read");
  if (!read_err.empty()) return read_err;
  std::string line;
  size_t cursor = 0;
  auto next_line = [&]() -> bool {
    if (cursor >= text.size()) return false;
    const size_t nl = text.find('\n', cursor);
    if (nl == std::string::npos) {
      line.assign(text, cursor, text.size() - cursor);
      cursor = text.size();
    } else {
      line.assign(text, cursor, nl - cursor);
      cursor = nl + 1;
    }
    return true;
  };

  if (!next_line() || line != kResultHeader) {
    return path + ": not a silkmoth shard result (or unsupported version)";
  }
  ShardResult result;
  if (!next_line() ||
      std::sscanf(line.c_str(), "shard %" SCNu32 " of %" SCNu32,
                  &result.shard, &result.num_shards) != 2) {
    return path + ": malformed shard line";
  }
  if (!next_line() ||
      std::sscanf(line.c_str(), "range %" SCNu32 " %" SCNu32,
                  &result.range.begin, &result.range.end) != 2 ||
      result.range.end < result.range.begin) {
    return path + ": malformed range line";
  }
  {
    char metric[64], phi[64];
    int q = 0, exact = 1;
    if (!next_line() ||
        std::sscanf(line.c_str(), "options %63s %63s %lg %lg %d %d", metric,
                    phi, &result.options.delta, &result.options.alpha, &q,
                    &exact) != 6 ||
        !ParseRelatedness(metric, &result.options.metric) ||
        !ParseSimilarityKind(phi, &result.options.phi) ||
        (exact != 0 && exact != 1)) {
      return path + ": malformed options line";
    }
    result.options.q = q;
    result.options.exact_scores = exact != 0;
  }
  {
    if (!next_line()) return path + ": missing reference line";
    if (line == "reference self") {
      result.query_mode = false;
      result.query_hash = 0;
    } else if (std::sscanf(line.c_str(), "reference query %" SCNx64,
                           &result.query_hash) == 1) {
      result.query_mode = true;
    } else {
      return path + ": malformed reference line";
    }
  }
  for (const CounterField& f : kSearchCounters) {
    unsigned long long v = 0;
    char name[64];
    if (!next_line() ||
        std::sscanf(line.c_str(), "stat %63s %llu", name, &v) != 2 ||
        std::strcmp(name, f.name) != 0) {
      return path + ": malformed or out-of-order stat line (want " +
             f.name + ")";
    }
    result.stats.*(f.member) = static_cast<size_t>(v);
  }
  for (const SecondsField& f : kSearchSeconds) {
    double v = 0;
    char name[64];
    if (!next_line() ||
        std::sscanf(line.c_str(), "statf %63s %lg", name, &v) != 2 ||
        std::strcmp(name, f.name) != 0) {
      return path + ": malformed or out-of-order statf line (want " +
             f.name + ")";
    }
    result.stats.*(f.member) = v;
  }
  unsigned long long num_pairs = 0;
  if (!next_line() ||
      std::sscanf(line.c_str(), "pairs %llu", &num_pairs) != 1) {
    return path + ": malformed pairs line";
  }
  result.pairs.reserve(std::min<unsigned long long>(num_pairs, 1 << 20));
  for (unsigned long long i = 0; i < num_pairs; ++i) {
    PairMatch p;
    if (!next_line() ||
        std::sscanf(line.c_str(), "%" SCNu32 " %" SCNu32 " %lg %lg",
                    &p.ref_id, &p.set_id, &p.matching_score,
                    &p.relatedness) != 4) {
      return path + ": truncated or malformed pair line";
    }
    if (!result.pairs.empty() && !PairMatchIdLess(result.pairs.back(), p)) {
      return path + ": pair stream is not sorted by (ref_id, set_id)";
    }
    result.pairs.push_back(p);
  }
  if (!next_line() || line != "end") {
    return path + ": missing end marker (truncated result file)";
  }
  *out = std::move(result);
  return "";
}

std::string MergeShardResults(const std::vector<ShardResult>& results,
                              std::vector<PairMatch>* pairs,
                              ShardedSearchStats* stats,
                              const MergeOptions& merge_options,
                              MergeCoverage* coverage) {
  if (results.empty()) return "no shard results to merge";
  const uint32_t num_shards = results[0].num_shards;
  std::vector<bool> seen(num_shards, false);
  size_t total = 0;
  for (const ShardResult& r : results) {
    if (r.num_shards != num_shards) {
      return "shard results disagree on the shard count (" +
             std::to_string(r.num_shards) + " vs " +
             std::to_string(num_shards) + ")";
    }
    if (r.shard >= num_shards) {
      return "shard id " + std::to_string(r.shard) +
             " out of range for " + std::to_string(num_shards) + " shards";
    }
    if (seen[r.shard]) {
      return "duplicate result for shard " + std::to_string(r.shard);
    }
    // Shards run under different query options merge into a stream that
    // matches no single-process run; refuse instead of silently combining.
    const Options& a = results[0].options;
    const Options& b = r.options;
    if (a.metric != b.metric || a.phi != b.phi || a.delta != b.delta ||
        a.alpha != b.alpha || a.q != b.q ||
        a.exact_scores != b.exact_scores) {
      return "shard results disagree on query options (shard " +
             std::to_string(r.shard) + " ran a different "
             "metric/phi/delta/alpha/q/exact-scores than shard " +
             std::to_string(results[0].shard) + ")";
    }
    // Same rule for the reference payload: a self-join stream and a query
    // stream (or streams over two different query payloads) belong to two
    // different answers.
    if (r.query_mode != results[0].query_mode ||
        r.query_hash != results[0].query_hash) {
      return "shard results disagree on the reference payload (shard " +
             std::to_string(r.shard) + " and shard " +
             std::to_string(results[0].shard) + " ran " +
             (r.query_mode != results[0].query_mode
                  ? "a query run against a self-join run"
                  : "different query payloads") +
             "; merge only shards of one run)";
    }
    seen[r.shard] = true;
    total += r.pairs.size();
  }
  if (!merge_options.allow_partial && results.size() != num_shards) {
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (!seen[s]) {
        return "missing result for shard " + std::to_string(s) + " (have " +
               std::to_string(results.size()) + " of " +
               std::to_string(num_shards) + ")";
      }
    }
  }
  if (coverage != nullptr) {
    // The explicit record of what this merge covers: partial output is
    // stamped with its present shard ids and their set-id ranges, so a
    // degraded-mode merge can never masquerade as a complete run.
    MergeCoverage cov;
    cov.num_shards = num_shards;
    cov.complete = true;
    std::vector<SetIdRange> range_of(num_shards);
    for (const ShardResult& r : results) range_of[r.shard] = r.range;
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (seen[s]) {
        cov.covered.push_back(s);
        cov.covered_ranges.push_back(range_of[s]);
      } else {
        cov.missing.push_back(s);
        cov.complete = false;
      }
    }
    *coverage = std::move(cov);
  }

  if (stats != nullptr) {
    stats->Reset(num_shards);
    for (const ShardResult& r : results) {
      stats->per_shard[r.shard] = r.stats;
    }
  }

  // K-way merge of the sorted streams. (ref_id, set_id) keys are unique
  // across shards — set-id ranges are disjoint — so the merged order equals
  // the in-process engine's canonical sort, bit for bit.
  pairs->clear();
  pairs->reserve(total);
  std::vector<size_t> cursor(results.size(), 0);
  for (size_t done = 0; done < total;) {
    size_t best = results.size();
    for (size_t i = 0; i < results.size(); ++i) {
      if (cursor[i] >= results[i].pairs.size()) continue;
      if (best == results.size() ||
          PairMatchIdLess(results[i].pairs[cursor[i]],
                          results[best].pairs[cursor[best]])) {
        best = i;
      }
    }
    pairs->push_back(results[best].pairs[cursor[best]++]);
    ++done;
  }
  return "";
}

std::string FormatCoverage(const MergeCoverage& cov) {
  std::string out = "# partial coverage: " +
                    std::to_string(cov.covered.size()) + " of " +
                    std::to_string(cov.num_shards) + " shards\n";
  std::string covered, ranges, missing;
  for (size_t i = 0; i < cov.covered.size(); ++i) {
    if (i) covered += ",";
    covered += std::to_string(cov.covered[i]);
    if (i) ranges += " ";
    ranges += "[" + std::to_string(cov.covered_ranges[i].begin) + "," +
              std::to_string(cov.covered_ranges[i].end) + ")";
  }
  for (size_t i = 0; i < cov.missing.size(); ++i) {
    if (i) missing += ",";
    missing += std::to_string(cov.missing[i]);
  }
  out += "# covered shards: " + covered + "\n";
  out += "# covered set-id ranges: " + ranges + "\n";
  out += "# missing shards: " + missing + "\n";
  return out;
}

}  // namespace silkmoth
