#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace roadrunner::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a{123}, b{123};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng{7};
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(n), n);
    }
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng{7};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0U);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng{7};
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng{99};
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 0.05 * kDraws / kBuckets);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng{5};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, UniformIntBadRangeThrows) {
  Rng rng{5};
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{13};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndRange) {
  Rng rng{17};
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.uniform(2.0, 6.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 6.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000, 4.0, 0.03);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{19};
  double sum = 0, sum2 = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal(3.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sum2 / kDraws - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.08);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{23};
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.exponential(0.5);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kDraws, 2.0, 0.05);
}

TEST(Rng, ExponentialBadRateThrows) {
  Rng rng{23};
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{29};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng{31};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng{37};
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 40000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 40000.0, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng{37};
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({1.0, -0.5}), std::invalid_argument);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng{41};
  for (double shape : {0.3, 1.0, 2.5, 10.0}) {
    double sum = 0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) {
      const double v = rng.gamma(shape);
      ASSERT_GT(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum / kDraws, shape, 0.06 * std::max(1.0, shape))
        << "shape=" << shape;
  }
}

TEST(Rng, GammaBadShapeThrows) {
  Rng rng{41};
  EXPECT_THROW(rng.gamma(0.0), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{43};
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng{47};
  for (int trial = 0; trial < 50; ++trial) {
    const auto picks = rng.sample_without_replacement(20, 7);
    ASSERT_EQ(picks.size(), 7U);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 7U);
    for (std::size_t p : picks) EXPECT_LT(p, 20U);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng{47};
  const auto picks = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 5U);
}

TEST(Rng, SampleWithoutReplacementTooManyThrows) {
  Rng rng{47};
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ForkIsStable) {
  Rng a{55}, b{55};
  Rng fa = a.fork("mobility");
  Rng fb = b.fork("mobility");
  for (int i = 0; i < 100; ++i) ASSERT_EQ(fa.next(), fb.next());
}

TEST(Rng, ForksWithDifferentTagsAreIndependent) {
  Rng root{55};
  Rng f1 = root.fork("alpha");
  Rng f2 = root.fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.next() == f2.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a{55};
  Rng b{55};
  (void)a.fork("child");
  for (int i = 0; i < 20; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DiscardMatchesNextCalls) {
  for (std::uint64_t n : {0ULL, 1ULL, 6144ULL}) {
    Rng stepped{91};
    stepped.next();  // start mid-stream, not at the seeded state
    // The discarding side resumes from a state() snapshot, as a checkpoint
    // restore would.
    Rng skipped{0};
    skipped.set_state(stepped.state());
    for (std::uint64_t i = 0; i < n; ++i) stepped.next();
    skipped.discard(n);
    EXPECT_EQ(skipped.state(), stepped.state()) << "n = " << n;
    EXPECT_EQ(skipped.next(), stepped.next()) << "n = " << n;
  }
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformDrawsStayInBoundsAndVary) {
  Rng rng{GetParam()};
  std::set<std::uint64_t> values;
  for (int i = 0; i < 256; ++i) values.insert(rng.next());
  EXPECT_GT(values.size(), 250U);  // no visible cycles or stuck state
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xFFFFFFFFULL,
                                           0xDEADBEEFDEADBEEFULL));

}  // namespace
}  // namespace roadrunner::util
