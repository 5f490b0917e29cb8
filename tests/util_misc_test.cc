#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.h"
#include "util/parallel.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace silkmoth {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "22"});
  std::ostringstream out;
  table.Print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header row and separator and two data rows.
  int newlines = 0;
  for (char c : s) newlines += c == '\n';
  EXPECT_EQ(newlines, 4);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"x"});
  std::ostringstream out;
  table.Print(out);
  SUCCEED();  // No crash; row padded to 3 cells.
}

TEST(TablePrinterTest, NumberFormatting) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Int(-42), "-42");
}

TEST(EnvTest, FallbackWhenUnset) {
  unsetenv("SILKMOTH_TEST_UNSET");
  EXPECT_EQ(GetEnvInt("SILKMOTH_TEST_UNSET", 17), 17);
  EXPECT_DOUBLE_EQ(GetEnvDouble("SILKMOTH_TEST_UNSET", 2.5), 2.5);
}

TEST(EnvTest, ParsesValues) {
  setenv("SILKMOTH_TEST_INT", "123", 1);
  EXPECT_EQ(GetEnvInt("SILKMOTH_TEST_INT", 0), 123);
  setenv("SILKMOTH_TEST_DBL", "0.75", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("SILKMOTH_TEST_DBL", 0.0), 0.75);
  unsetenv("SILKMOTH_TEST_INT");
  unsetenv("SILKMOTH_TEST_DBL");
}

TEST(EnvTest, GarbageFallsBack) {
  setenv("SILKMOTH_TEST_BAD", "not-a-number", 1);
  EXPECT_EQ(GetEnvInt("SILKMOTH_TEST_BAD", 9), 9);
  unsetenv("SILKMOTH_TEST_BAD");
}

TEST(TimerTest, ElapsedIsMonotone) {
  WallTimer timer;
  const double a = timer.ElapsedSeconds();
  const double b = timer.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_GE(timer.ElapsedMillis(), b * 1e3);
}

TEST(TimerTest, RestartResets) {
  WallTimer timer;
  volatile int sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1;
  const double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1.0);
}

TEST(ParallelTest, ChunksCoverTheRangeOnceInOrder) {
  for (const size_t parts : {size_t{1}, size_t{4}}) {
    for (const size_t n : {size_t{0}, size_t{1}, parts - 1, parts,
                           10 * parts + 3}) {
      const size_t per = (n + parts - 1) / parts;
      size_t next = 0;
      for (size_t i = 0; i < parts; ++i) {
        const auto [begin, end] = Chunk(n, parts, i);
        EXPECT_EQ(begin, next) << "n=" << n << " parts=" << parts;
        EXPECT_LE(begin, end);
        EXPECT_LE(end - begin, per);
        next = end;
      }
      EXPECT_EQ(next, n) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(ParallelTest, OneWorkerRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran;
  RunWorkers(1, [&](size_t w) {
    EXPECT_EQ(w, 0u);
    ran.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], caller);
}

TEST(ParallelTest, EveryWorkerRunsExactlyOnce) {
  std::vector<std::atomic<int>> calls(4);
  RunWorkers(4, [&](size_t w) { calls.at(w).fetch_add(1); });
  for (size_t w = 0; w < calls.size(); ++w) {
    EXPECT_EQ(calls[w].load(), 1) << "worker " << w;
  }
}

}  // namespace
}  // namespace silkmoth
