// Tests of the benchmark's own statistics (src/stats.hpp): the
// percentile rule, failed/attempted accounting and open-loop latency.
//
//   cmake -S perfbench -B .bench_build
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test
#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankOnOneToHundred) {
  const auto v = one_to(100);
  EXPECT_EQ(quantile(v, 50).value, 50);
  EXPECT_EQ(quantile(v, 99).value, 99);
  EXPECT_EQ(quantile(v, 100).value, 100);
  EXPECT_EQ(quantile(v, 0).value, 1);
}

TEST(Percentile, CountsSamplesStrictlyBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(100, 50), 50u);
  EXPECT_EQ(samples_beyond(0, 99), 0u);
}

TEST(Percentile, P99NeedsAThousandSamples) {
  EXPECT_TRUE(quantile(one_to(1000), 99).supported());
  const Quantile q = quantile(one_to(999), 99);
  EXPECT_FALSE(q.supported());
  EXPECT_EQ(q.n, 999u);
  EXPECT_EQ(q.beyond, 9u);
}

TEST(Timing, TailIsHighestLadderStepWithTenBeyond) {
  // 1000 samples: p99.9 has 1 beyond, p99 has 10 -> tail is p99.
  Timing t = summarize(one_to(1000));
  EXPECT_EQ(t.tail.q, 99.0);
  EXPECT_EQ(t.tail.value, 990);
  EXPECT_EQ(t.tail.beyond, 10u);
  EXPECT_EQ(t.median.n, 1000u);
  EXPECT_EQ(t.median.value, 500);

  // 10000 samples reach p99.9 (10 beyond).
  t = summarize(one_to(10000));
  EXPECT_EQ(t.tail.q, 99.9);
  EXPECT_EQ(t.tail.beyond, 10u);

  // 100 samples only support p90 (10 beyond); p99 would have 1.
  t = summarize(one_to(100));
  EXPECT_EQ(t.tail.q, 90.0);
  EXPECT_EQ(t.tail.value, 90);
  EXPECT_TRUE(t.tail.supported());
}

TEST(Timing, TooFewSamplesFallBackToUnsupportedMedian) {
  const Timing t = summarize(one_to(10));
  EXPECT_EQ(t.tail.q, 50.0);
  EXPECT_FALSE(t.tail.supported());
  EXPECT_EQ(t.tail.n, 10u);

  const Timing empty = summarize({});
  EXPECT_EQ(empty.median.n, 0u);
  EXPECT_FALSE(empty.tail.supported());
}

TEST(Tally, CountsEveryAttemptAndEachFailureOnce) {
  Tally t;
  EXPECT_EQ(t.attempted(), 0u);
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(false);
  EXPECT_EQ(t.attempted(), 4u);
  EXPECT_EQ(t.failed(), 2u);
}

TEST(OpenLoop, DueTimesFollowTheScheduleNotTheSender) {
  const OpenLoopSchedule s{1'000, 100};
  EXPECT_EQ(s.due(0), 1'000);
  EXPECT_EQ(s.due(7), 1'700);
}

TEST(OpenLoop, LatencyCountsAGeneratorStallForEveryDelayedRequest) {
  // Requests every 100 ns from t=0, each served in 10 ns after it is
  // sent.  The generator stalls from t=150 to t=450, then sends the
  // overdue requests 2, 3 and 4 at once.
  const OpenLoopSchedule s{0, 100};
  const std::int64_t stall_end = 450;
  std::vector<std::int64_t> from_due, from_send, lag;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::int64_t sent = s.due(i) < 150 ? s.due(i)
                              : std::max(s.due(i), stall_end);
    const std::int64_t done = sent + 10;
    from_due.push_back(s.latency(i, done));
    from_send.push_back(done - sent);
    lag.push_back(s.lag(i, sent));
  }
  // Measured from the send time, the stall would be invisible.
  for (const std::int64_t l : from_send) EXPECT_EQ(l, 10);
  // Measured from the due time, every delayed request pays its wait.
  EXPECT_EQ(from_due, (std::vector<std::int64_t>{10, 10, 260, 160, 60, 10}));
  EXPECT_EQ(lag, (std::vector<std::int64_t>{0, 0, 250, 150, 50, 0}));
}

}  // namespace
}  // namespace perfbench
