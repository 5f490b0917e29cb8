#include "matching/verifier.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "matching/hungarian.h"
#include "matching/local_max.h"

namespace silkmoth {
namespace {

/// One positive φ_α cell of the verification graph.
struct Edge {
  uint32_t col;
  double w;
};

/// Reusable per-thread buffers for ScoreDecision and the reduction, so a
/// verification allocates nothing once they have grown to the largest sets
/// seen (the verifier's counterpart of core/query_scratch.h). Not shared
/// across threads; nothing in a verification re-enters the verifier.
struct VerifyScratch {
  std::vector<const Element*> r_elems;  ///< Surviving R elements (rows).
  std::vector<const Element*> s_elems;  ///< Surviving S elements (columns).
  /// Reduction: (identity fingerprint, S index), sorted.
  std::vector<std::pair<uint64_t, uint32_t>> s_keys;
  std::vector<uint8_t> s_taken;  ///< Reduction: S element already paired.
  /// Jaccard edge gathering: (token, column), sorted.
  std::vector<std::pair<TokenId, uint32_t>> s_tokens;
  std::vector<uint64_t> col_epoch;  ///< Column last gathered in this epoch.
  uint64_t epoch = 0;               ///< One per gathered row.
  std::vector<uint32_t> cands;      ///< Columns scored for the current row.
  std::vector<uint32_t> row_begin;  ///< CSR offsets into `edges`, rows + 1.
  std::vector<Edge> edges;          ///< Positive cells, rows in order,
                                    ///< columns ascending within a row.
  std::vector<double> row_max;
  std::vector<double> col_max;
  std::vector<uint32_t> order;
  std::vector<uint8_t> col_used;
};

thread_local VerifyScratch t_scratch;

/// Hash of what makes two elements "identical" for the reduction: the
/// token set for Jaccard, the text for the edit similarities. Equal
/// identities hash equal; SameIdentity confirms every hash hit.
uint64_t IdentityFingerprint(const Element& e, bool edit) {
  if (edit) return std::hash<std::string_view>{}(e.text);
  uint64_t h = 0xcbf29ce484222325ULL ^ e.tokens.size();
  for (TokenId t : e.tokens) {
    h ^= t;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool SameIdentity(const Element& a, const Element& b, bool edit) {
  if (edit) return a.text == b.text;
  return std::equal(a.tokens.begin(), a.tokens.end(), b.tokens.begin(),
                    b.tokens.end());
}

/// The dense φ_α matrix of an edge list: the positive cells, zero elsewhere.
WeightMatrix DenseWeights(size_t rows, size_t cols, const VerifyScratch& sc) {
  WeightMatrix w(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t k = sc.row_begin[i]; k < sc.row_begin[i + 1]; ++k) {
      w.At(i, sc.edges[k].col) = sc.edges[k].w;
    }
  }
  return w;
}

}  // namespace

MaxMatchingVerifier::MaxMatchingVerifier(const ElementSimilarity* sim,
                                         double alpha, bool use_reduction)
    : sim_(sim),
      alpha_(alpha),
      reduction_active_(use_reduction && alpha <= kFloatSlack &&
                        sim->HasMetricDual()) {}

size_t MaxMatchingVerifier::SelectElements(
    const SetRecord& r, const SetRecord& s,
    std::vector<const Element*>* r_elems,
    std::vector<const Element*>* s_elems) const {
  r_elems->clear();
  s_elems->clear();

  if (!reduction_active_) {
    for (const Element& e : r.elements) r_elems->push_back(&e);
    for (const Element& e : s.elements) s_elems->push_back(&e);
    return 0;
  }

  // Pair identical elements greedily: each identical pair (φ = 1) is in
  // some maximum matching when 1-φ obeys the triangle inequality, and the
  // argument applies inductively to the reduced instance. Each R element,
  // in R order, takes the lowest-index still-free identical S element, so
  // S gives up the first k occurrences of every identity R pairs k times.
  const bool edit = IsEditSimilarity(sim_->kind());
  VerifyScratch& sc = t_scratch;
  sc.s_keys.clear();
  for (uint32_t j = 0; j < s.elements.size(); ++j) {
    sc.s_keys.emplace_back(IdentityFingerprint(s.elements[j], edit), j);
  }
  std::sort(sc.s_keys.begin(), sc.s_keys.end());
  sc.s_taken.assign(s.elements.size(), 0);
  size_t reduced = 0;
  for (const Element& e : r.elements) {
    const uint64_t fp = IdentityFingerprint(e, edit);
    bool paired = false;
    for (auto it = std::lower_bound(sc.s_keys.begin(), sc.s_keys.end(),
                                    std::pair<uint64_t, uint32_t>(fp, 0));
         it != sc.s_keys.end() && it->first == fp; ++it) {
      if (!sc.s_taken[it->second] &&
          SameIdentity(e, s.elements[it->second], edit)) {
        sc.s_taken[it->second] = 1;
        paired = true;
        break;
      }
    }
    if (paired) {
      ++reduced;
    } else {
      r_elems->push_back(&e);
    }
  }
  for (uint32_t j = 0; j < s.elements.size(); ++j) {
    if (!sc.s_taken[j]) s_elems->push_back(&s.elements[j]);
  }
  return reduced;
}

double MaxMatchingVerifier::ScoreDense(
    const std::vector<const Element*>& r_elems,
    const std::vector<const Element*>& s_elems, MatchingStats* stats) const {
  if (r_elems.empty() || s_elems.empty()) return 0.0;
  WeightMatrix w(r_elems.size(), s_elems.size());
  for (size_t i = 0; i < r_elems.size(); ++i) {
    for (size_t j = 0; j < s_elems.size(); ++j) {
      w.At(i, j) = sim_->ScoreThresholded(*r_elems[i], *s_elems[j], alpha_);
    }
  }
  if (stats != nullptr) {
    stats->matrix_rows = r_elems.size();
    stats->matrix_cols = s_elems.size();
    stats->similarity_calls += r_elems.size() * s_elems.size();
  }
  return MaxWeightMatchingScore(w);
}

double MaxMatchingVerifier::ScoreWithAlignment(
    const SetRecord& r, const SetRecord& s,
    std::vector<AlignedPair>* alignment) const {
  alignment->clear();
  if (r.Empty() || s.Empty()) return 0.0;
  WeightMatrix w(r.Size(), s.Size());
  for (size_t i = 0; i < r.Size(); ++i) {
    for (size_t j = 0; j < s.Size(); ++j) {
      w.At(i, j) =
          sim_->ScoreThresholded(r.elements[i], s.elements[j], alpha_);
    }
  }
  std::vector<int> row_to_col;
  const double score = MaxWeightMatching(w, &row_to_col);
  for (size_t i = 0; i < r.Size(); ++i) {
    const int j = row_to_col[i];
    if (j < 0) continue;
    const double pair_score = w.At(i, static_cast<size_t>(j));
    if (pair_score > 0.0) {
      alignment->push_back(AlignedPair{static_cast<uint32_t>(i),
                                       static_cast<uint32_t>(j), pair_score});
    }
  }
  return score;
}

double MaxMatchingVerifier::Score(const SetRecord& r, const SetRecord& s,
                                  MatchingStats* stats) const {
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const size_t reduced = SelectElements(r, s, &r_elems, &s_elems);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  return static_cast<double>(reduced) + ScoreDense(r_elems, s_elems, stats);
}

VerifyDecision MaxMatchingVerifier::ScoreDecision(const SetRecord& r,
                                                  const SetRecord& s,
                                                  double theta,
                                                  MatchingStats* stats,
                                                  double margin,
                                                  bool need_exact_score,
                                                  double floor_theta) const {
  // A margin below kFloatSlack would let the reject test (`upper < theta -
  // margin`) pass inputs the exact path accepts (`score >= theta -
  // kFloatSlack`): clamping keeps every bound-settled decision consistent
  // with the exact decision regardless of the caller's margin.
  margin = std::max(margin, kFloatSlack);
  VerifyScratch& sc = t_scratch;
  const size_t reduced = SelectElements(r, s, &sc.r_elems, &sc.s_elems);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);

  VerifyDecision d;
  if (sc.r_elems.empty() || sc.s_elems.empty()) {
    d.lower = d.upper = d.score = base;
    d.exact = true;
    d.related = d.score >= theta - kFloatSlack;
    if (stats != nullptr) {
      if (d.related) ++stats->bound_accepts;
      else ++stats->bound_rejects;
    }
    return d;
  }

  const std::vector<const Element*>& r_elems = sc.r_elems;
  const std::vector<const Element*>& s_elems = sc.s_elems;
  const size_t rows = r_elems.size();
  const size_t cols = s_elems.size();

  // The φ_α graph as CSR edge lists: row i's positive cells are
  // edges[row_begin[i], row_begin[i + 1]), columns ascending. Jaccard is
  // positive only on pairs sharing a token (at any α), so each row scores
  // just the columns it shares a token with; the edit similarities score
  // every column. Zero cells are never stored: no bound below reads them.
  const bool by_token = sim_->kind() == SimilarityKind::kJaccard;
  if (by_token) {
    sc.s_tokens.clear();
    for (uint32_t j = 0; j < cols; ++j) {
      for (TokenId t : s_elems[j]->tokens) sc.s_tokens.emplace_back(t, j);
    }
    std::sort(sc.s_tokens.begin(), sc.s_tokens.end());
    if (sc.col_epoch.size() < cols) sc.col_epoch.resize(cols, 0);
  } else {
    sc.cands.resize(cols);
    std::iota(sc.cands.begin(), sc.cands.end(), 0u);
  }
  sc.row_max.assign(rows, 0.0);
  sc.col_max.assign(cols, 0.0);
  sc.edges.clear();
  sc.row_begin.clear();
  sc.row_begin.push_back(0);
  size_t calls = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (by_token) {
      // Columns sharing a token with row i, each once, ascending.
      sc.cands.clear();
      const uint64_t epoch = ++sc.epoch;
      auto lo = sc.s_tokens.cbegin();
      for (TokenId t : r_elems[i]->tokens) {
        lo = std::lower_bound(lo, sc.s_tokens.cend(), t,
                              [](const std::pair<TokenId, uint32_t>& p,
                                 TokenId v) { return p.first < v; });
        for (auto it = lo; it != sc.s_tokens.cend() && it->first == t; ++it) {
          if (sc.col_epoch[it->second] != epoch) {
            sc.col_epoch[it->second] = epoch;
            sc.cands.push_back(it->second);
          }
        }
      }
      std::sort(sc.cands.begin(), sc.cands.end());
    }
    calls += sc.cands.size();
    for (uint32_t j : sc.cands) {
      const double v = sim_->ScoreThresholded(*r_elems[i], *s_elems[j], alpha_);
      if (v <= 0.0) continue;
      sc.edges.push_back(Edge{j, v});
      sc.row_max[i] = std::max(sc.row_max[i], v);
      sc.col_max[j] = std::max(sc.col_max[j], v);
    }
    sc.row_begin.push_back(static_cast<uint32_t>(sc.edges.size()));
  }
  if (stats != nullptr) {
    stats->matrix_rows = rows;
    stats->matrix_cols = cols;
    stats->similarity_calls += calls;
  }

  // Upper bound: every matched pair is at most its row maximum and its
  // column maximum, and each row/column hosts at most one pair.
  double row_sum = 0.0;
  for (double v : sc.row_max) row_sum += v;
  double col_sum = 0.0;
  for (double v : sc.col_max) col_sum += v;
  d.upper = base + std::min(row_sum, col_sum);
  // The reduced pairs alone form a feasible matching, so `base` is already
  // a valid lower bound; the greedy bound below can only raise it.
  d.lower = base;

  if (d.upper < theta - margin) {
    // Even a perfect row-wise assignment cannot reach theta. Rejects are
    // the dominant fast-path outcome, so this test runs before any greedy
    // pass or dense matrix.
    d.related = false;
    d.score = d.upper;
    if (stats != nullptr) ++stats->bound_rejects;
    return d;
  }

  if (floor_theta > theta && d.upper < floor_theta - margin) {
    // θ-related or not, this candidate cannot reach the caller's floating
    // floor (top-k's current k-th-best score), so no bound or solve is
    // worth running on it.
    d.related = false;
    d.score = d.upper;
    if (stats != nullptr) ++stats->floor_rejects;
    return d;
  }

  // Lower bound: a greedy matching — rows visited in descending row-maximum
  // order, each taking its heaviest still-free column (the first in column
  // order on ties) — is a feasible matching, hence a lower bound on the
  // optimum (Birn et al. show greedy matchings are near-optimal in
  // practice). It walks the edge lists only: a zero cell never beats the
  // strict `>`, so the picks and their sum are those of a dense scan.
  sc.order.resize(rows);
  std::iota(sc.order.begin(), sc.order.end(), 0u);
  std::sort(sc.order.begin(), sc.order.end(), [&](uint32_t a, uint32_t b) {
    if (sc.row_max[a] != sc.row_max[b]) return sc.row_max[a] > sc.row_max[b];
    return a < b;
  });
  sc.col_used.assign(cols, 0);
  double greedy = 0.0;
  for (uint32_t i : sc.order) {
    if (sc.row_max[i] <= 0.0) break;  // Remaining rows have no edge.
    double best = 0.0;
    size_t best_j = cols;
    for (uint32_t k = sc.row_begin[i]; k < sc.row_begin[i + 1]; ++k) {
      const Edge& e = sc.edges[k];
      if (!sc.col_used[e.col] && e.w > best) {
        best = e.w;
        best_j = e.col;
      }
    }
    if (best_j < cols) {
      sc.col_used[best_j] = 1;
      greedy += best;
    }
  }
  d.lower = base + greedy;

  if (d.lower >= theta + margin) {
    // The greedy matching alone already certifies relatedness. The greedy
    // sum's summation order differs from the exact solver's, so it is never
    // reported as exact; when the caller needs the reportable score the
    // solver runs on the dense matrix of the edges (reporting cost only —
    // the decision was settled by the bound).
    d.related = true;
    if (need_exact_score) {
      d.score =
          base + MaxWeightMatchingScore(DenseWeights(rows, cols, sc));
      d.exact = true;
      if (stats != nullptr) ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    if (stats != nullptr) ++stats->bound_accepts;
    return d;
  }

  // Tier 2 and the exact solver read a dense matrix; only the few
  // verifications that get this far build one, scattered from the edges so
  // the solver input is exactly the all-pairs φ_α matrix.
  const WeightMatrix w = DenseWeights(rows, cols, sc);

  // Tier 2: the local-max matching (Birn et al.) is near-linear on the
  // matrix and incomparable with the row-greedy bound, so the lower bound
  // becomes the max of the two. Its 1/2-of-optimum guarantee
  // also makes bound-only reported scores (`--approx-scores`) at least half
  // the exact score whenever this tier settles the accept.
  d.lower = base + std::max(greedy, LocalMaxMatchingScore(w));
  if (d.lower >= theta + margin) {
    d.related = true;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      if (stats != nullptr) ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    if (stats != nullptr) ++stats->tier2_accepts;
    return d;
  }

  // Ambiguous band: only here does the exact solver run.
  d.score = base + MaxWeightMatchingScore(w);
  d.exact = true;
  d.related = d.score >= theta - kFloatSlack;
  if (stats != nullptr) ++stats->exact_solves;
  return d;
}

}  // namespace silkmoth
