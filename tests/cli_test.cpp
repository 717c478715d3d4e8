// Command-line parsing: the strict number parser the tools share
// (tools/cli.hpp) and the bench flag parser (bench/bench_util.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "bench_util.hpp"
#include "cli.hpp"

namespace bneck {
namespace {

TEST(Cli, ParseCountReadsTheWholeValueInRange) {
  std::uint64_t v = 0;
  EXPECT_TRUE(cli::parse_count("3", 1, 3, &v));
  EXPECT_EQ(v, 3u);
  EXPECT_TRUE(cli::parse_count("18446744073709551615", 0,
                               std::numeric_limits<std::uint64_t>::max(), &v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  v = 7;
  for (const char* bad : {"9", "0", "-3", "+2", " 2", "2x", "", "1O",
                          "18446744073709551616"}) {
    EXPECT_FALSE(cli::parse_count(bad, 1, 3, &v)) << bad;
    EXPECT_EQ(v, 7u) << bad;  // untouched on refusal
  }
  EXPECT_FALSE(cli::parse_count(nullptr, 0, 3, &v));
}

TEST(Cli, ParseSeedRangeRefusesPartialRanges) {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  EXPECT_TRUE(cli::parse_seed_range("0..10", &first, &last));
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(last, 10u);
  EXPECT_TRUE(cli::parse_seed_range("5", &first, &last));
  EXPECT_EQ(first, 5u);
  EXPECT_EQ(last, 5u);
  for (const char* bad : {"0..1O", "5x", "3..2", "..4", "4..", "-1"}) {
    EXPECT_FALSE(cli::parse_seed_range(bad, &first, &last)) << bad;
  }
}

TEST(BenchArgs, ExplicitScaleOneSurvivesTheBenchDefault) {
  constexpr double kExp2Default = 0.1;
  char prog[] = "exp2_dynamics";
  char flag[] = "--scale";
  char one[] = "1";
  char* absent[] = {prog};
  EXPECT_EQ(benchutil::Args::parse(1, absent, kExp2Default).scale, 0.1);
  char* given[] = {prog, flag, one};
  EXPECT_EQ(benchutil::Args::parse(3, given, kExp2Default).scale, 1.0);
}

}  // namespace
}  // namespace bneck
