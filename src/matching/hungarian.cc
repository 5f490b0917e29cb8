#include "matching/hungarian.h"

#include <algorithm>
#include <limits>

namespace silkmoth {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Classic potentials-based Hungarian algorithm on an n x m cost matrix with
// n <= m, minimizing total cost over perfect assignments of the rows.
// `cost` is a callback (i, j) -> double. Returns assignment row -> col.
std::vector<int> SolveMinCost(size_t n, size_t m,
                              const std::vector<double>& cost) {
  // 1-based arrays per the standard formulation.
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0);    // p[j]: row matched to column j.
  std::vector<int> way(m + 1, 0);  // Back-pointers along the alternating path.
  std::vector<double> minv(m + 1);  // Reset per row.
  std::vector<char> used(m + 1);    // Reset per row.

  for (size_t i = 1; i <= n; ++i) {
    p[0] = static_cast<int>(i);
    size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      const size_t i0 = static_cast<size_t>(p[j0]);
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = cost[(i0 - 1) * m + (j - 1)] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = static_cast<int>(j0);
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[static_cast<size_t>(p[j])] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the path.
    do {
      const size_t j1 = static_cast<size_t>(way[j0]);
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> row_to_col(n, -1);
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] > 0) row_to_col[static_cast<size_t>(p[j]) - 1] =
        static_cast<int>(j) - 1;
  }
  return row_to_col;
}

}  // namespace

double MaxWeightMatching(const WeightMatrix& weights,
                         std::vector<int>* row_to_col) {
  const size_t r = weights.rows();
  const size_t c = weights.cols();
  if (r == 0 || c == 0) {
    if (row_to_col != nullptr) row_to_col->assign(r, -1);
    return 0.0;
  }

  // Orient so rows <= cols; maximization becomes minimization of
  // (max_w - w). Columns beyond the original count are zero padding and
  // never needed because c >= r after orientation.
  const bool transposed = r > c;
  const size_t n = transposed ? c : r;
  const size_t m = transposed ? r : c;

  double max_w = 0.0;
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) max_w = std::max(max_w, weights.At(i, j));
  }

  std::vector<double> cost(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double w = transposed ? weights.At(j, i) : weights.At(i, j);
      cost[i * m + j] = max_w - w;
    }
  }

  const std::vector<int> assign = SolveMinCost(n, m, cost);

  double score = 0.0;
  std::vector<int> out(r, -1);
  for (size_t i = 0; i < n; ++i) {
    const int j = assign[i];
    if (j < 0) continue;
    const double w = transposed ? weights.At(static_cast<size_t>(j), i)
                                : weights.At(i, static_cast<size_t>(j));
    score += w;
    if (transposed) {
      out[static_cast<size_t>(j)] = static_cast<int>(i);
    } else {
      out[i] = j;
    }
  }
  if (row_to_col != nullptr) *row_to_col = std::move(out);
  return score;
}

double MaxWeightMatchingScore(const WeightMatrix& weights) {
  return MaxWeightMatching(weights, nullptr);
}

}  // namespace silkmoth
