// The harnesses' one command line (bench/bench_util.h): --quick and
// --json=PATH parse, and every other argument exits 2, --json included on
// a harness that writes no JSON.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace godiva::bench {
namespace {

// Parses `args` as a harness command line, after the program name.
CommandLine ParseArgs(std::vector<std::string> args, bool writes_json) {
  std::string program = "bench";
  std::vector<char*> argv = {program.data()};
  for (std::string& arg : args) argv.push_back(arg.data());
  return CommandLine::Parse(static_cast<int>(argv.size()), argv.data(),
                            writes_json);
}

TEST(BenchCommandLineTest, NoArgumentsRunTheFullSize) {
  CommandLine line = ParseArgs({}, /*writes_json=*/true);
  EXPECT_FALSE(line.quick);
  EXPECT_EQ(line.json_path, "");
}

TEST(BenchCommandLineTest, QuickAndJsonParse) {
  CommandLine line =
      ParseArgs({"--quick", "--json=out/bench.json"}, /*writes_json=*/true);
  EXPECT_TRUE(line.quick);
  EXPECT_EQ(line.json_path, "out/bench.json");
  EXPECT_TRUE(ParseArgs({"--quick"}, /*writes_json=*/false).quick);
}

TEST(BenchCommandLineTest, BenchFlagsPickTheSizeAndOpenTheClock) {
  std::string program = "bench";
  std::string quick = "--quick";
  char* argv[] = {program.data(), quick.data()};
  BenchFlags flags = BenchFlags::Parse(2, argv, BenchSize{1.0, 32},
                                       BenchSize{0.12, 8},
                                       /*writes_json=*/false);
  EXPECT_EQ(flags.size.factor, 0.12);
  EXPECT_EQ(flags.ToOptions().spec.num_snapshots, 8);
  EXPECT_EQ(flags.json_path, "");
  EXPECT_NE(flags.scope, nullptr);
}

TEST(BenchCommandLineDeathTest, UnknownFlagExits2) {
  for (const char* arg :
       {"--factor=1", "--snapshots=4", "--window=4", "--reads=8", "quick"}) {
    SCOPED_TRACE(arg);
    EXPECT_EXIT(ParseArgs({arg}, /*writes_json=*/true),
                ::testing::ExitedWithCode(2), "unknown flag");
  }
}

TEST(BenchCommandLineDeathTest, JsonExits2WhereNoJsonIsWritten) {
  EXPECT_EXIT(ParseArgs({"--json=x"}, /*writes_json=*/false),
              ::testing::ExitedWithCode(2), "unknown flag: --json=x");
}

}  // namespace
}  // namespace godiva::bench
