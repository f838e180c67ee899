#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace iprism::common {
namespace {

TEST(CliArgs, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=100", "--verbose", "--rate=2.5", "--name=abc"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_string("name", ""), "abc");
}

TEST(CliArgs, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 1.5), 1.5);
  EXPECT_EQ(args.get_string("name", "x"), "x");
  EXPECT_FALSE(args.has("verbose"));
}

TEST(CliArgs, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

TEST(CliArgs, RejectsMalformedNumbers) {
  // Each value must parse whole: a prefix parse would turn --n=1e3 into one
  // scenario and --seconds=2s into two seconds without a word.
  auto rejects = [](const char* arg, bool as_int) {
    const char* argv[] = {"prog", arg};
    const CliArgs args(2, argv);
    const std::string key = as_int ? "n" : "seconds";
    try {
      if (as_int) {
        args.get_int(key, 0);
      } else {
        args.get_double(key, 0.0);
      }
    } catch (const std::invalid_argument& e) {
      // The message names the flag, so the user knows which one to fix.
      return std::string(e.what()).find("--" + key) != std::string::npos;
    }
    return false;
  };
  for (const char* arg : {"--n=1e3", "--n=12abc", "--n=3.9", "--n=99999999999", "--n=",
                          "--n=two"}) {
    EXPECT_TRUE(rejects(arg, true)) << arg;
  }
  for (const char* arg : {"--seconds=2s", "--seconds=nan", "--seconds=inf",
                          "--seconds=-inf", "--seconds=1e999", "--seconds="}) {
    EXPECT_TRUE(rejects(arg, false)) << arg;
  }

  // The forms the benchmark drivers and CI pass still parse.
  const char* argv[] = {"prog", "--seconds=55.0", "--trace=0", "--n=50", "--threads=2"};
  const CliArgs args(5, argv);
  EXPECT_DOUBLE_EQ(args.get_double("seconds", 0.0), 55.0);
  EXPECT_EQ(args.get_int("trace", 1), 0);
  EXPECT_EQ(args.get_int("n", 0), 50);
  EXPECT_EQ(args.get_int("threads", 0), 2);
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", Table::num(1.234, 2)});
  t.add_row({"b", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(CsvWriter, WritesRows) {
  const std::string path = ::testing::TempDir() + "iprism_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row(std::vector<std::string>{"a", "b"});
    csv.write_row(std::vector<double>{1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "1.5,2");
  std::remove(path.c_str());
}

TEST(CsvWriter, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace iprism::common
