#include "text/levenshtein.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace silkmoth {
namespace {

/// Longest shorter string the bit-vector path handles: one machine word.
constexpr int kWordBits = 64;

/// LD(a, b) if it is at most one, else 2. Requires |a| <= |b| <= |a| + 1.
int WithinOneEdit(std::string_view a, std::string_view b) {
  size_t i = 0;
  while (i < a.size() && a[i] == b[i]) ++i;
  if (i == a.size()) return static_cast<int>(b.size() - a.size());
  // First mismatch at i: equal lengths leave one substitution, a longer `b`
  // one deletion of b[i] (any earlier deletion in a run of equal bytes
  // yields the same string).
  const size_t skip_a = a.size() == b.size() ? i + 1 : i;
  return a.substr(skip_a) == b.substr(i + 1) ? 1 : 2;
}

/// Myers/Hyyrö bit-parallel global edit distance, with `a` (1..64 bytes) as
/// the bit-vector pattern and `b` as the text. Returns max_d + 1 as soon as
/// the last row can no longer come back within budget.
int BitVectorLevenshtein(std::string_view a, std::string_view b, int max_d) {
  // Only the entries for bytes of `a` and `b` are ever read, so only those
  // are cleared. Index through unsigned char: bytes >= 0x80 are negative as
  // plain char.
  uint64_t peq[256];
  for (unsigned char c : b) peq[c] = 0;
  for (unsigned char c : a) peq[c] = 0;
  for (size_t j = 0; j < a.size(); ++j) {
    peq[static_cast<unsigned char>(a[j])] |= uint64_t{1} << j;
  }
  const int top = static_cast<int>(a.size()) - 1;
  const int m = static_cast<int>(b.size());
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = static_cast<int>(a.size());
  for (int i = 0; i < m; ++i) {
    const uint64_t eq = peq[static_cast<unsigned char>(b[i])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    // Branch-free: the last-row deltas of unrelated strings are random.
    score += static_cast<int>((ph >> top) & 1) -
             static_cast<int>((mh >> top) & 1);
    // Each remaining text byte lowers the last row by at most one.
    if (score - (m - 1 - i) > max_d) return max_d + 1;
    ph = (ph << 1) | 1;  // Row 0 grows by one per text byte.
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

/// Row-by-row DP over the cells within max_d of the diagonal. Cells outside
/// the band read as max_d + 1, which their true distance exceeds, so a cell
/// holds its exact distance when that is <= max_d and some value > max_d
/// otherwise. Requires 1 <= |a| <= |b| and 0 <= max_d <= |b|.
int BandedLevenshtein(std::string_view a, std::string_view b, int max_d) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int over = max_d + 1;
  std::vector<int> row(n + 1);
  for (int j = 0; j <= n; ++j) row[j] = j <= max_d ? j : over;
  for (int i = 1; i <= m; ++i) {
    const int lo = std::max(1, i - max_d);
    const int hi = std::min(n, i + max_d);
    int diag = row[lo - 1];
    row[lo - 1] = lo == 1 ? i : over;
    const char bi = b[i - 1];
    int left = row[lo - 1];
    int best = over;
    for (int j = lo; j <= hi; ++j) {
      const int up = row[j];
      const int cell = std::min(diag + (a[j - 1] != bi ? 1 : 0),
                                std::min(up, left) + 1);
      diag = up;
      row[j] = left = cell;
      best = std::min(best, cell);
    }
    // Every path crosses this row inside the band (row[0] = i never beats
    // row[1] <= i), so a band over budget ends the search.
    if (best > max_d) return over;
  }
  return row[n] <= max_d ? row[n] : over;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  return BoundedLevenshtein(
      a, b, static_cast<int>(std::max(a.size(), b.size())));
}

int BoundedLevenshtein(std::string_view a, std::string_view b, int max_d) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter string.
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (m - n > max_d) return max_d + 1;  // Also every negative budget.
  max_d = std::min(max_d, m);           // LD <= |b| keeps max_d + 1 finite.
  if (max_d == 0) return a == b ? 0 : 1;
  if (max_d == 1) return WithinOneEdit(a, b);
  if (n == 0) return m;
  if (n <= kWordBits) return BitVectorLevenshtein(a, b, max_d);
  return BandedLevenshtein(a, b, max_d);
}

}  // namespace silkmoth
