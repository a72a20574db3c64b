#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace tind {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : storage) argv.push_back(a.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesKeyValue) {
  const Flags f = ParseArgs({"--attributes=5000", "--name=hello"});
  EXPECT_TRUE(f.Has("attributes"));
  EXPECT_EQ(f.GetInt("attributes", 0), 5000);
  EXPECT_EQ(f.GetString("name", ""), "hello");
}

TEST(FlagsTest, DefaultsWhenMissing) {
  const Flags f = ParseArgs({});
  EXPECT_FALSE(f.Has("x"));
  EXPECT_EQ(f.GetInt("x", 7), 7);
  EXPECT_EQ(f.GetDouble("x", 2.5), 2.5);
  EXPECT_EQ(f.GetString("x", "d"), "d");
  EXPECT_TRUE(f.GetBool("x", true));
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags f = ParseArgs({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(FlagsTest, BoolSpellings) {
  EXPECT_TRUE(ParseArgs({"--a=true"}).GetBool("a", false));
  EXPECT_TRUE(ParseArgs({"--a=1"}).GetBool("a", false));
  EXPECT_TRUE(ParseArgs({"--a=yes"}).GetBool("a", false));
  EXPECT_FALSE(ParseArgs({"--a=false"}).GetBool("a", true));
  EXPECT_FALSE(ParseArgs({"--a=0"}).GetBool("a", true));
}

TEST(FlagsTest, DoubleParsing) {
  const Flags f = ParseArgs({"--eps=3.5"});
  EXPECT_DOUBLE_EQ(f.GetDouble("eps", 0), 3.5);
}

TEST(FlagsTest, PositionalArguments) {
  const Flags f = ParseArgs({"input.txt", "--k=2", "other"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "other");
  EXPECT_EQ(f.GetInt("k", 0), 2);
}

TEST(FlagsTest, IntList) {
  const Flags f = ParseArgs({"--sizes=1,2,40"});
  EXPECT_EQ(f.GetIntList("sizes", {}), (std::vector<int64_t>{1, 2, 40}));
  EXPECT_EQ(f.GetIntList("missing", {9}), (std::vector<int64_t>{9}));
}

TEST(FlagsTest, DoubleList) {
  const Flags f = ParseArgs({"--eps=0.5,1,2.25"});
  EXPECT_EQ(f.GetDoubleList("eps", {}), (std::vector<double>{0.5, 1, 2.25}));
}

TEST(FlagsTest, EmptyListEntriesSkipped) {
  const Flags f = ParseArgs({"--sizes=1,,2"});
  EXPECT_EQ(f.GetIntList("sizes", {}), (std::vector<int64_t>{1, 2}));
}

/// Exit code of a rejected numeric flag (the InvalidArgument code).
int RejectedFlagCode() {
  return StatusExitCode(Status::InvalidArgument(""));
}

TEST(FlagsDeathTest, MalformedNumberExits) {
  EXPECT_EXIT(ParseArgs({"--attributes=abc"}).GetInt("attributes", 5),
              ::testing::ExitedWithCode(RejectedFlagCode()),
              "--attributes=abc");
  EXPECT_EXIT(ParseArgs({"--queries=12x"}).GetInt("queries", 5),
              ::testing::ExitedWithCode(RejectedFlagCode()), "--queries=12x");
  EXPECT_EXIT(ParseArgs({"--eps=3.5.1"}).GetDouble("eps", 1.0),
              ::testing::ExitedWithCode(RejectedFlagCode()), "--eps=3.5.1");
  EXPECT_EXIT(ParseArgs({"--eps="}).GetDouble("eps", 1.0),
              ::testing::ExitedWithCode(RejectedFlagCode()), "--eps=");
  // A bare flag means "true", which is not a number.
  EXPECT_EXIT(ParseArgs({"--attributes"}).GetInt("attributes", 5),
              ::testing::ExitedWithCode(RejectedFlagCode()),
              "--attributes=true");
}

TEST(FlagsDeathTest, OutOfRangeExits) {
  EXPECT_EXIT(ParseArgs({"--seed=99999999999999999999"}).GetInt("seed", 1),
              ::testing::ExitedWithCode(RejectedFlagCode()), "--seed=");
  EXPECT_EXIT(ParseArgs({"--eps=1e999"}).GetDouble("eps", 1.0),
              ::testing::ExitedWithCode(RejectedFlagCode()), "--eps=1e999");
}

TEST(FlagsDeathTest, MalformedListEntryExits) {
  EXPECT_EXIT(ParseArgs({"--sizes=1,two,3"}).GetIntList("sizes", {}),
              ::testing::ExitedWithCode(RejectedFlagCode()), "--sizes=two");
  EXPECT_EXIT(ParseArgs({"--eps=0.5,x"}).GetDoubleList("eps", {}),
              ::testing::ExitedWithCode(RejectedFlagCode()), "--eps=x");
}

TEST(FlagsDeathTest, UnreadFlagExits) {
  // --hedge_ms was never read: a removed or misspelt flag fails loudly.
  EXPECT_EXIT(
      {
        const Flags f = ParseArgs({"--port=1", "--hedge_ms=5"});
        (void)f.GetInt("port", 0);
        f.RejectUnread();
      },
      ::testing::ExitedWithCode(RejectedFlagCode()), "--hedge_ms");
  EXPECT_EXIT(
      {
        const Flags f = ParseArgs({"--stream_fraq=0.2", "--verbose"});
        (void)f.GetDouble("stream_frac", 0.0);
        f.RejectUnread();
      },
      ::testing::ExitedWithCode(RejectedFlagCode()),
      "--stream_fraq, --verbose");
}

TEST(FlagsTest, ReadOrDeclaredFlagsPass) {
  const Flags f = ParseArgs({"--a=1", "--b", "--c=x", "--d=2", "pos"});
  (void)f.GetInt("a", 0);
  EXPECT_TRUE(f.Has("b"));                // Has counts as a read.
  (void)f.GetIntList("missing", {});      // Reading an absent key is fine.
  f.Declare({"c", "d", "never_given"});  // Read on other paths only.
  f.RejectUnread();                       // Returns: nothing unread.
  SUCCEED();
}

TEST(FlagsTest, NegativeAndExponentValuesParse) {
  const Flags f = ParseArgs({"--delta=-3", "--eps=2.5e-1"});
  EXPECT_EQ(f.GetInt("delta", 0), -3);
  EXPECT_DOUBLE_EQ(f.GetDouble("eps", 0), 0.25);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::ostringstream os;
  t.Print(os, "Title");
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::FormatInt(-7), "-7");
  EXPECT_EQ(TablePrinter::FormatPercent(0.5, 1), "50.0%");
}

TEST(TablePrinterTest, RowCount) {
  TablePrinter t({"x"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({"1"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  // Burn a little CPU.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000 * 0.5);
  const double before = sw.ElapsedSeconds();
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace tind
