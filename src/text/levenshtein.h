#ifndef SILKMOTH_TEXT_LEVENSHTEIN_H_
#define SILKMOTH_TEXT_LEVENSHTEIN_H_

#include <string_view>

namespace silkmoth {

/// Exact Levenshtein (edit) distance: minimum number of single-character
/// insertions, deletions, and substitutions transforming `a` into `b`.
/// This is BoundedLevenshtein with budget max(|a|, |b|), which LD never
/// exceeds, so it always returns the exact distance.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Levenshtein distance with an upper bound `max_d`.
///
/// Returns the exact distance if it is <= max_d, and max_d + 1 otherwise
/// (callers must only compare against max_d). A length gap over max_d, and
/// so every negative max_d, returns max_d + 1 at once. Otherwise, with n
/// the shorter and m the longer length, the path follows the inputs:
///  - max_d == 0: an equality test, O(n).
///  - max_d == 1: a direct one-edit test (common prefix, then the rest
///    compared as one substitution or deletion), O(n).
///  - n <= 64: the Myers/Hyyrö bit-parallel distance, one 64-bit word per
///    byte of the longer string, O(n + m); it stops once the distance can
///    no longer come back within max_d.
///  - n > 64: a DP over the band of cells within max_d of the diagonal,
///    O(max_d * m) time and one O(n) row; it stops once a whole band row is
///    over budget.
/// Only the last path allocates; the others work on the stack.
int BoundedLevenshtein(std::string_view a, std::string_view b, int max_d);

}  // namespace silkmoth

#endif  // SILKMOTH_TEXT_LEVENSHTEIN_H_
