#include "engine_replay.h"

#include <algorithm>
#include <thread>

#include "core/query_scratch.h"
#include "core/relatedness.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "matching/verifier.h"
#include "sig/scheme.h"

namespace perfbench {

using namespace silkmoth;

namespace {

thread_local PhiTally* t_tally = nullptr;
thread_local PhiStage t_stage = kPhiCheck;

void Note(const Element& a, const Element& b, double alpha, bool thresholded,
          double score) {
  PhiTally* t = t_tally;
  if (t == nullptr) return;
  ++t->calls[t_stage];
  if (score != 0.0) ++t->nonzero[t_stage];
  if (t->recording && t->sample[t_stage].size() < t->sample_cap) {
    t->sample[t_stage].push_back(PhiCall{a, b, alpha, thresholded});
  }
}

/// One search pass rebuilt from the stages' public functions — the same
/// sequence, thresholds, margin and top-k floor rules as RunSearchPass —
/// with a span around every stage call.
std::vector<SearchMatch> ReplayPass(const SetRecord& ref, uint32_t exclude_set,
                                    const ReplayPlan& plan,
                                    const TracingSimilarity* sim,
                                    QueryScratch* scratch, SearchStats* stats,
                                    ReplayExtras* ex, SpanBuffer* spans,
                                    uint64_t request) {
  std::vector<SearchMatch> results;
  if (ref.Empty()) return results;
  const Collection& data = *plan.data;
  const InvertedIndex& index = *plan.index;
  const Options& options = plan.options;
  const size_t top_k = plan.top_k;

  const int64_t pass = spans->Begin(kSpanPass, -1, request);
  ++stats->references;

  SchemeParams params;
  params.scheme = options.scheme;
  params.phi = options.phi;
  params.theta = MatchingThreshold(options.delta, ref.Size());
  params.alpha = options.alpha;
  params.q = options.EffectiveQ();
  int64_t sp = spans->Begin(kSpanSignature, pass, request);
  const Signature sig = GenerateSignature(ref, index, params);
  spans->End(sp);
  stats->signature_tokens += sig.NumProbeTokens();

  std::vector<Candidate> candidates;
  const bool use_check = options.check_filter || options.nn_filter;
  TracingSimilarity::SetStage(kPhiCheck);
  sp = spans->Begin(kSpanCheck, pass, request);
  if (sig.valid) {
    CheckFilterStats cstats;
    candidates = SelectAndCheckCandidates(ref, sig, data, index, options,
                                          use_check, &cstats, sim, scratch);
    stats->initial_candidates += cstats.initial_candidates;
    stats->after_size += cstats.initial_candidates - cstats.size_filtered;
    stats->similarity_calls += cstats.similarity_calls;
    ex->postings_scanned += cstats.postings_scanned;
  } else {
    candidates = AllCandidates(ref, data, options);
    ++stats->fallback_scans;
    stats->initial_candidates += candidates.size();
    stats->after_size += candidates.size();
  }
  spans->End(sp);
  stats->after_check += candidates.size();

  if (options.nn_filter && sig.valid) {
    TracingSimilarity::SetStage(kPhiNn);
    sp = spans->Begin(kSpanNn, pass, request);
    NnFilterStats nstats;
    candidates = NnFilterCandidates(ref, sig, std::move(candidates), data,
                                    index, options, &nstats, sim, scratch);
    spans->End(sp);
    stats->similarity_calls += nstats.similarity_calls;
    ex->nn_searches += nstats.nn_searches;
    ex->early_terminations += nstats.early_terminations;
  }
  stats->after_nn += candidates.size();

  TracingSimilarity::SetStage(kPhiVerify);
  const MaxMatchingVerifier verifier(sim, options.alpha, options.reduction);
  for (const Candidate& cand : candidates) {
    if (cand.set_id == exclude_set) continue;
    const SetRecord& s = data.sets[cand.set_id];
    const double m_threshold =
        RelatedScoreThreshold(ref.Size(), s.Size(), options);
    const double margin =
        kFloatSlack * (static_cast<double>(ref.Size() + s.Size()) + 2.0);
    const double floor_theta =
        top_k > 0 && results.size() == top_k
            ? ScoreThresholdForRelatedness(results.front().relatedness,
                                           ref.Size(), s.Size(), options)
            : -1.0;
    MatchingStats mstats;
    sp = spans->Begin(kSpanVerify, pass, request);
    const VerifyDecision decision = verifier.ScoreDecision(
        ref, s, m_threshold, &mstats, margin, options.exact_scores,
        floor_theta);
    spans->End(sp);
    ++stats->verifications;
    stats->similarity_calls += mstats.similarity_calls;
    stats->reduced_pairs += mstats.reduced_pairs;
    stats->bound_accepts += mstats.bound_accepts;
    stats->bound_rejects += mstats.bound_rejects;
    stats->tier2_accepts += mstats.tier2_accepts;
    stats->heap_floor_rejects += mstats.floor_rejects;
    stats->exact_solves += mstats.exact_solves;
    stats->reporting_solves += mstats.reporting_solves;
    ex->matrix_cells += mstats.matrix_rows * mstats.matrix_cols;
    const bool related =
        decision.exact
            ? IsRelated(decision.score, ref.Size(), s.Size(), options)
            : decision.related;
    if (!related) continue;
    const double m = decision.exact ? decision.score : decision.lower;
    if (!decision.exact) ++stats->bound_only_scores;
    SearchMatch match;
    match.set_id = cand.set_id;
    match.matching_score = m;
    match.relatedness = RelatednessScore(m, ref.Size(), s.Size(), options);
    if (top_k == 0) {
      results.push_back(match);
    } else if (results.size() < top_k) {
      results.push_back(match);
      std::push_heap(results.begin(), results.end(), IsBetterMatch);
    } else if (IsBetterMatch(match, results.front())) {
      std::pop_heap(results.begin(), results.end(), IsBetterMatch);
      results.back() = match;
      std::push_heap(results.begin(), results.end(), IsBetterMatch);
    }
  }
  stats->results += results.size();
  if (top_k > 0) {
    std::sort(results.begin(), results.end(), IsBetterMatch);
  } else {
    std::sort(results.begin(), results.end(),
              [](const SearchMatch& a, const SearchMatch& b) {
                return a.set_id < b.set_id;
              });
  }
  spans->End(pass);
  return results;
}

struct WorkerOut {
  SearchStats stats;
  ReplayExtras extras;
  PhiTally phi;
  SpanBuffer spans;
  double engine_seconds = 0.0;
  double replay_seconds = 0.0;
  std::string mismatch;
};

/// Median ns per call of the inner kernel over a recorded sample.
double TimePhiSample(const ElementSimilarity* inner,
                     const std::vector<PhiCall>& sample) {
  if (sample.empty()) return 0.0;
  volatile double sink = 0.0;
  std::vector<double> per_call;
  // Enough passes over the sample that each timing covers ~1M calls.
  const size_t passes = std::max<size_t>(1, (size_t{1} << 20) / sample.size());
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    double acc = 0.0;
    for (size_t p = 0; p < passes; ++p) {
      for (const PhiCall& c : sample) {
        acc += c.thresholded ? inner->ScoreThresholded(c.a, c.b, c.alpha)
                             : inner->Score(c.a, c.b);
      }
    }
    sink = sink + acc;
    per_call.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(passes * sample.size()));
  }
  return Median(per_call);
}

}  // namespace

bool IsBetterMatch(const SearchMatch& a, const SearchMatch& b) {
  if (a.relatedness != b.relatedness) return a.relatedness > b.relatedness;
  return a.set_id < b.set_id;
}

void PhiTally::Merge(const PhiTally& o) {
  for (int s = 0; s < kPhiStages; ++s) {
    calls[s] += o.calls[s];
    nonzero[s] += o.nonzero[s];
    sample[s].insert(sample[s].end(), o.sample[s].begin(), o.sample[s].end());
  }
}

double TracingSimilarity::Score(const Element& a, const Element& b) const {
  const double v = inner_->Score(a, b);
  Note(a, b, 0.0, false, v);
  return v;
}

double TracingSimilarity::ScoreThresholded(const Element& a, const Element& b,
                                           double alpha) const {
  const double v = inner_->ScoreThresholded(a, b, alpha);
  Note(a, b, alpha, true, v);
  return v;
}

void TracingSimilarity::Bind(PhiTally* tally) { t_tally = tally; }
void TracingSimilarity::SetStage(PhiStage stage) { t_stage = stage; }

ReplayResult ReplaySweep(const ReplayPlan& plan, TraceLog* log) {
  const ElementSimilarity* inner = GetSimilarity(plan.options.phi);
  const TracingSimilarity sim(inner);
  const uint32_t n = static_cast<uint32_t>(plan.refs.size());
  const int threads = std::max(1, std::min<int>(plan.threads, std::max(1u, n)));
  const uint32_t chunk = (n + threads - 1) / threads;

  ReplayResult out;
  out.engine_ref_seconds.assign(n, 0.0);
  std::vector<WorkerOut> work(threads);
  auto run = [&](int t) {
    WorkerOut& w = work[t];
    w.phi.sample_cap = plan.sample_cap;
    TracingSimilarity::Bind(&w.phi);
    QueryScratch engine_scratch;
    QueryScratch replay_scratch;
    const uint32_t begin = std::min(n, t * chunk);
    const uint32_t end = std::min(n, (t + 1) * chunk);
    for (uint32_t i = begin; i < end; ++i) {
      const SetRecord& ref = *plan.refs[i];
      const uint32_t exclude = plan.self_join ? i : kNoExclude;
      // Engine and replay alternate which runs first, so neither side is
      // systematically the one that warms the caches for the other.
      SearchStats engine_stats, replay_stats;
      std::vector<SearchMatch> want, got;
      int64_t engine_ns = 0, replay_ns = 0;
      auto run_engine = [&] {
        const int64_t t0 = NowNs();
        want = RunSearchPass(ref, *plan.data, *plan.index, plan.options,
                             exclude, &engine_stats, &engine_scratch,
                             SetIdRange{}, plan.top_k);
        engine_ns = NowNs() - t0;
      };
      auto run_replay = [&] {
        w.phi.recording = plan.sample_stride > 0 && i % plan.sample_stride == 0;
        const int64_t t0 = NowNs();
        got = ReplayPass(ref, exclude, plan, &sim, &replay_scratch,
                         &replay_stats, &w.extras, &w.spans,
                         uint64_t{i} + 1);
        replay_ns = NowNs() - t0;
        w.phi.recording = false;
      };
      if (i % 2 == 0) {
        run_engine();
        run_replay();
      } else {
        run_replay();
        run_engine();
      }
      out.engine_ref_seconds[i] = engine_ns * 1e-9;
      w.engine_seconds += engine_ns * 1e-9;
      w.replay_seconds += replay_ns * 1e-9;
      if (w.mismatch.empty()) {
        if (got != want) {
          w.mismatch = "reference " + std::to_string(i) + ": " +
                       std::to_string(got.size()) + " replayed matches vs " +
                       std::to_string(want.size()) + " from the engine";
        } else if (replay_stats.CountersJson() !=
                   engine_stats.CountersJson()) {
          w.mismatch = "reference " + std::to_string(i) +
                       ": funnel differs: replay " +
                       replay_stats.CountersJson() + " engine " +
                       engine_stats.CountersJson();
        }
      }
      w.stats.Merge(replay_stats);
    }
    TracingSimilarity::Bind(nullptr);
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(run, t);
  for (auto& th : pool) th.join();

  for (WorkerOut& w : work) {
    if (out.equal && !w.mismatch.empty()) {
      out.equal = false;
      out.mismatch = w.mismatch;
    }
    out.stats.Merge(w.stats);
    out.extras.Merge(w.extras);
    out.phi.Merge(w.phi);
    out.engine_seconds += w.engine_seconds;
    out.replay_seconds += w.replay_seconds;
    if (log != nullptr) log->Merge(w.spans);
  }
  for (int s = 0; s < kPhiStages; ++s) {
    out.phi_ns[s] = TimePhiSample(inner, out.phi.sample[s]);
  }
  return out;
}

}  // namespace perfbench
