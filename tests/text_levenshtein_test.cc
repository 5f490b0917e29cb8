#include "text/levenshtein.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace silkmoth {
namespace {

// Independent reference: the textbook O(|a|·|b|) DP over the full matrix.
int ReferenceDistance(std::string_view a, std::string_view b) {
  std::vector<std::vector<int>> d(a.size() + 1,
                                  std::vector<int>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = static_cast<int>(i);
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return d[a.size()][b.size()];
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("a", ""), 1);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
}

TEST(LevenshteinTest, PaperExample) {
  // Section 2.1: LD("50 Vassar St MA", "50 Vassar Street MA") = 4.
  EXPECT_EQ(LevenshteinDistance("50 Vassar St MA", "50 Vassar Street MA"), 4);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(LevenshteinDistance("abcdef", "azced"),
            LevenshteinDistance("azced", "abcdef"));
}

TEST(LevenshteinTest, BoundedMatchesFullWithinBudget) {
  const std::string a = "approximate string matching";
  const std::string b = "appromixate strng mtaching";
  const int full = LevenshteinDistance(a, b);
  EXPECT_EQ(BoundedLevenshtein(a, b, full), full);
  EXPECT_EQ(BoundedLevenshtein(a, b, full + 3), full);
}

TEST(LevenshteinTest, BoundedReportsOverBudget) {
  const std::string a = "completely";
  const std::string b = "different!";
  const int full = LevenshteinDistance(a, b);
  ASSERT_GT(full, 2);
  EXPECT_GT(BoundedLevenshtein(a, b, 2), 2);
}

TEST(LevenshteinTest, BoundedLengthGapShortcut) {
  EXPECT_GT(BoundedLevenshtein("ab", "abcdefgh", 3), 3);
}

TEST(LevenshteinTest, BoundedNegativeBudget) {
  EXPECT_EQ(BoundedLevenshtein("", "", -1), 0);
  EXPECT_GT(BoundedLevenshtein("a", "b", -1), -1);
}

TEST(LevenshteinTest, BoundedZeroBudget) {
  EXPECT_EQ(BoundedLevenshtein("same", "same", 0), 0);
  EXPECT_GT(BoundedLevenshtein("same", "sane", 0), 0);
}

TEST(LevenshteinTest, TriangleInequalityOnRandomStrings) {
  Rng rng(99);
  auto random_string = [&](size_t max_len) {
    std::string s;
    const size_t len = rng.NextBounded(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBounded(4)));
    }
    return s;
  };
  for (int trial = 0; trial < 300; ++trial) {
    const std::string x = random_string(12);
    const std::string y = random_string(12);
    const std::string z = random_string(12);
    EXPECT_LE(LevenshteinDistance(x, z),
              LevenshteinDistance(x, y) + LevenshteinDistance(y, z));
  }
}

class BoundedVsFullSweep : public ::testing::TestWithParam<int> {};

TEST_P(BoundedVsFullSweep, AgreesWithFullOnRandomPairs) {
  const int max_d = GetParam();
  Rng rng(static_cast<uint64_t>(1000 + max_d));
  auto random_string = [&](size_t max_len) {
    std::string s;
    const size_t len = rng.NextBounded(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBounded(6)));
    }
    return s;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = random_string(20);
    const std::string b = random_string(20);
    const int full = ReferenceDistance(a, b);
    const int bounded = BoundedLevenshtein(a, b, max_d);
    if (full <= max_d) {
      EXPECT_EQ(bounded, full) << "a=" << a << " b=" << b;
    } else {
      EXPECT_GT(bounded, max_d) << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BoundedVsFullSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 12));

// Both entry points, in both argument orders, against the reference DP.
// Lengths 0-130 cross the 64-byte bit-vector limit; the second string is the
// first with 0-4 random edits, so budgets 0 and 1 see distances 0, 1 and 2
// on every length. Bytes >= 0x80 (UTF-8 'é', 0xff) catch a mask table
// indexed through signed char.
TEST(LevenshteinTest, KernelMatchesReferenceAcrossPathsAndBytes) {
  const std::vector<std::string> units = {"a", "b", "c", "\xc3\xa9", "\xff"};
  const std::string bytes = "abc\xc3\xa9\xff";
  Rng rng(2024);
  auto random_byte = [&] { return bytes[rng.NextBounded(bytes.size())]; };
  auto random_string = [&](size_t len) {
    std::string s;
    while (s.size() < len) s += units[rng.NextBounded(units.size())];
    s.resize(len);
    return s;
  };
  auto edited = [&](std::string s) {
    const uint64_t edits = rng.NextBounded(5);
    for (uint64_t e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBounded(s.size() + 1);
      const uint64_t op = s.empty() ? 1 : rng.NextBounded(3);
      if (op == 0) {
        s[std::min(pos, s.size() - 1)] = random_byte();
      } else if (op == 1) {
        s.insert(pos, 1, random_byte());
      } else {
        s.erase(std::min(pos, s.size() - 1), 1);
      }
    }
    return s;
  };
  const int budgets[] = {-1, 0, 1, 2, 3, 5, 8, 12, 64};
  for (size_t len = 0; len <= 130; ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::string a = random_string(len);
      // The last trial pairs unrelated strings: large distances exercise
      // the early exits of the bit-vector and banded paths.
      const std::string b =
          trial == 3 ? random_string(rng.NextBounded(131)) : edited(a);
      const int ref = ReferenceDistance(a, b);
      for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
        EXPECT_EQ(LevenshteinDistance(x, y), ref)
            << "|x|=" << x.size() << " |y|=" << y.size();
        for (int max_d : budgets) {
          const int expected = ref <= max_d ? ref : max_d + 1;
          EXPECT_EQ(BoundedLevenshtein(x, y, max_d), expected)
              << "|x|=" << x.size() << " |y|=" << y.size()
              << " max_d=" << max_d << " ref=" << ref;
        }
      }
    }
  }
}

}  // namespace
}  // namespace silkmoth
