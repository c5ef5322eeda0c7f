#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qntn {
namespace {

TEST(RunningStats, EmptyAccumulator) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance with n-1: sum of squared deviations = 32, / 7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats stats;
  stats.add(42.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(7);
  RunningStats all, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 200 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, MergeIsAssociativeOverRandomPartitions) {
  // Property test: for random data split into random chunks, any merge
  // parenthesisation must agree with sequential accumulation. The obs
  // registry relies on this when folding per-thread shards in any order.
  Rng rng(20240806);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 400));
    std::vector<double> data;
    data.reserve(n);
    RunningStats sequential;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.normal(-1.0, 5.0);
      data.push_back(x);
      sequential.add(x);
    }
    // Random partition into up to 5 chunks.
    std::vector<RunningStats> chunks(
        static_cast<std::size_t>(rng.uniform_int(1, 5)));
    for (const double x : data) {
      chunks[static_cast<std::size_t>(rng.uniform_int(
                 0, static_cast<std::int64_t>(chunks.size()) - 1))]
          .add(x);
    }
    // Left fold ((a + b) + c) ... and right fold a + (b + (c ...)).
    RunningStats left_fold = chunks.front();
    for (std::size_t i = 1; i < chunks.size(); ++i) {
      left_fold.merge(chunks[i]);
    }
    RunningStats right_fold = chunks.back();
    for (std::size_t i = chunks.size() - 1; i-- > 0;) {
      RunningStats acc = chunks[i];
      acc.merge(right_fold);
      right_fold = acc;
    }
    for (const RunningStats& folded : {left_fold, right_fold}) {
      EXPECT_EQ(folded.count(), sequential.count());
      EXPECT_NEAR(folded.mean(), sequential.mean(), 1e-9);
      EXPECT_NEAR(folded.variance(), sequential.variance(), 1e-7);
      EXPECT_DOUBLE_EQ(folded.min(), sequential.min());
      EXPECT_DOUBLE_EQ(folded.max(), sequential.max());
    }
  }
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 25.0);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 0.5), PreconditionError);
  EXPECT_THROW((void)percentile({1.0}, 1.5), PreconditionError);
  EXPECT_THROW((void)percentiles({}, {0.5}), PreconditionError);
  EXPECT_THROW((void)percentiles({1.0}, {0.5, -0.1}), PreconditionError);
}

TEST(Percentile, OneSortGivesEachPercentileBitForBit) {
  Rng rng(5);
  const std::vector<double> qs{0.0, 0.01, 0.5, 0.95, 0.99, 1.0};
  for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                 std::size_t{7}, std::size_t{1000}}) {
    std::vector<double> values;
    for (std::size_t i = 0; i < size; ++i) {
      values.push_back(rng.uniform(0.0, 50.0));
    }
    const std::vector<double> got = percentiles(values, qs);
    ASSERT_EQ(got.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(got[i], percentile(values, qs[i])) << "q=" << qs[i];
    }
  }
}

}  // namespace
}  // namespace qntn
