// Tests for the Data Preprocessing module: synthetic generators,
// partitioners, and dataset persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <set>

#include "data/dataset_io.hpp"
#include "data/gaussian_blobs.hpp"
#include "data/partition.hpp"
#include "data/synthetic_images.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::data {
namespace {

// ------------------------------------------------------- synthetic images --

TEST(SyntheticImages, ShapeAndLabels) {
  SyntheticImageConfig cfg;
  const auto ds = make_synthetic_images(64, cfg);
  EXPECT_EQ(ds.size(), 64U);
  EXPECT_EQ(ds.features().shape(),
            (std::vector<std::size_t>{64, 3, 32, 32}));
  for (std::int32_t y : ds.labels()) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 10);
  }
}

TEST(SyntheticImages, DeterministicGivenSeed) {
  SyntheticImageConfig cfg;
  cfg.seed = 77;
  const auto a = make_synthetic_images(16, cfg);
  const auto b = make_synthetic_images(16, cfg);
  EXPECT_EQ(a.features(), b.features());
  EXPECT_EQ(a.labels(), b.labels());
  cfg.seed = 78;
  const auto c = make_synthetic_images(16, cfg);
  EXPECT_FALSE(a.features() == c.features());
}

/// The generator's definition as one serial stream: per sample, a label
/// from next_below, then render_synthetic_image on the same Rng.
ml::Dataset one_stream_images(std::size_t count,
                              const SyntheticImageConfig& cfg) {
  util::Rng rng{cfg.seed};
  const std::size_t sample_size = cfg.channels * cfg.side * cfg.side;
  ml::Tensor x{{count, cfg.channels, cfg.side, cfg.side}};
  std::vector<std::int32_t> labels(count);
  for (std::size_t n = 0; n < count; ++n) {
    labels[n] = static_cast<std::int32_t>(rng.next_below(cfg.num_classes));
    const ml::Tensor img = render_synthetic_image(labels[n], cfg, rng);
    std::copy_n(img.data(), sample_size, x.data() + n * sample_size);
  }
  return ml::Dataset{std::move(x), std::move(labels), cfg.num_classes};
}

bool same_bytes(const ml::Dataset& a, const ml::Dataset& b) {
  const ml::Tensor& fa = a.features();
  const ml::Tensor& fb = b.features();
  return fa.shape() == fb.shape() && a.labels() == b.labels() &&
         std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)) == 0;
}

TEST(SyntheticImages, MatchesOneStreamRender) {
  SyntheticImageConfig small;
  small.side = 16;
  small.channels = 1;
  small.num_classes = 3;
  small.max_shift = 0;
  small.seed = 9;
  for (const SyntheticImageConfig& cfg : {SyntheticImageConfig{}, small}) {
    for (std::size_t count : {0U, 1U, 257U}) {
      EXPECT_TRUE(same_bytes(make_synthetic_images(count, cfg),
                             one_stream_images(count, cfg)))
          << "side " << cfg.side << ", count " << count;
    }
  }
}

TEST(SyntheticImages, SameBytesInsideAPoolWorker) {
  // On the main thread the paint pass shards over the global pool. From a
  // worker of the global pool it runs inline on that worker; from a worker
  // of another pool (a campaign job) that worker is one more caller.
  SyntheticImageConfig cfg;
  cfg.seed = 31;
  const ml::Dataset sharded = make_synthetic_images(97, cfg);
  util::ThreadPool campaign_pool{1};
  for (util::ThreadPool* pool :
       {&util::ThreadPool::global(), &campaign_pool}) {
    std::promise<ml::Dataset> done;
    pool->submit([&] { done.set_value(make_synthetic_images(97, cfg)); });
    EXPECT_TRUE(same_bytes(sharded, done.get_future().get()));
  }
}

TEST(SyntheticImages, ClassesAreStatisticallyDistinct) {
  // Mean images of different classes must differ: averaging over many
  // samples cancels noise and per-sample nuisance, leaving the pattern.
  SyntheticImageConfig cfg;
  cfg.noise_sigma = 0.5;
  cfg.max_shift = 0;  // keep patterns aligned for the mean comparison
  util::Rng rng{5};
  constexpr int kPerClass = 40;
  std::vector<ml::Tensor> means;
  for (std::int32_t c = 0; c < 10; ++c) {
    ml::Tensor mean{{3, 32, 32}};
    for (int i = 0; i < kPerClass; ++i) {
      mean.add_(render_synthetic_image(c, cfg, rng));
    }
    mean.mul_(1.0F / kPerClass);
    means.push_back(std::move(mean));
  }
  for (std::size_t a = 0; a < means.size(); ++a) {
    for (std::size_t b = a + 1; b < means.size(); ++b) {
      const double gap = (means[a] - means[b]).norm();
      EXPECT_GT(gap, 3.0) << "classes " << a << " and " << b
                          << " are not distinguishable";
    }
  }
}

TEST(SyntheticImages, ValidatesConfig) {
  SyntheticImageConfig cfg;
  cfg.num_classes = 0;
  EXPECT_THROW(make_synthetic_images(4, cfg), std::invalid_argument);
  cfg.num_classes = 11;
  EXPECT_THROW(make_synthetic_images(4, cfg), std::invalid_argument);
  cfg.num_classes = 10;
  util::Rng rng{1};
  EXPECT_THROW(render_synthetic_image(-1, cfg, rng), std::invalid_argument);
  EXPECT_THROW(render_synthetic_image(10, cfg, rng), std::invalid_argument);
}

// --------------------------------------------------------- gaussian blobs --

TEST(GaussianBlobs, SeparationControlsLearnability) {
  GaussianBlobConfig tight;
  tight.center_radius = 10.0;
  tight.spread = 0.5;
  const auto ds = make_gaussian_blobs(200, tight);
  // Nearest-centroid classification on the true means should be easy; we
  // verify separation via within- vs between-class distances.
  std::vector<std::vector<const float*>> by_class(tight.num_classes);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    by_class[static_cast<std::size_t>(ds.label(i))].push_back(ds.sample(i));
  }
  for (const auto& members : by_class) ASSERT_GT(members.size(), 10U);
}

TEST(GaussianBlobs, Validates) {
  GaussianBlobConfig cfg;
  cfg.num_classes = 0;
  EXPECT_THROW(make_gaussian_blobs(4, cfg), std::invalid_argument);
  cfg.num_classes = 2;
  cfg.dimensions = 0;
  EXPECT_THROW(make_gaussian_blobs(4, cfg), std::invalid_argument);
}

// ------------------------------------------------------------ partitioning --

ml::DatasetView blob_pool(std::size_t n, std::uint64_t seed = 9) {
  GaussianBlobConfig cfg;
  cfg.num_classes = 4;
  cfg.seed = seed;
  return ml::DatasetView::all(
      std::make_shared<ml::Dataset>(make_gaussian_blobs(n, cfg)));
}

TEST(TrainTestSplit, PartitionsWithoutOverlap) {
  auto base = std::make_shared<ml::Dataset>(make_gaussian_blobs(100));
  util::Rng rng{1};
  const auto split = train_test_split(base, 0.2, rng);
  EXPECT_EQ(split.test.size(), 20U);
  EXPECT_EQ(split.train.size(), 80U);
  std::set<std::uint32_t> seen(split.train.indices().begin(),
                               split.train.indices().end());
  for (std::uint32_t i : split.test.indices()) {
    EXPECT_FALSE(seen.contains(i));
  }
}

TEST(TrainTestSplit, Validates) {
  auto base = std::make_shared<ml::Dataset>(make_gaussian_blobs(10));
  util::Rng rng{1};
  EXPECT_THROW(train_test_split(base, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(base, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(nullptr, 0.1, rng), std::invalid_argument);
}

TEST(PartitionIid, DisjointFixedSizeParts) {
  auto pool = blob_pool(200);
  util::Rng rng{2};
  const auto parts = partition_iid(pool, 10, 15, rng);
  ASSERT_EQ(parts.size(), 10U);
  std::set<std::uint32_t> seen;
  for (const auto& part : parts) {
    EXPECT_EQ(part.size(), 15U);
    for (std::uint32_t i : part.indices()) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
}

TEST(PartitionIid, ThrowsWhenPoolTooSmall) {
  auto pool = blob_pool(50);
  util::Rng rng{2};
  EXPECT_THROW(partition_iid(pool, 10, 6, rng), std::invalid_argument);
}

TEST(PartitionClassSkew, RespectsClassCountAndSize) {
  auto pool = blob_pool(2000);
  util::Rng rng{3};
  const auto parts = partition_class_skew(pool, 12, 40, 2, rng);
  ASSERT_EQ(parts.size(), 12U);
  for (const auto& part : parts) {
    EXPECT_EQ(part.size(), 40U);
    const auto hist = part.class_histogram();
    int classes_present = 0;
    for (std::size_t c : hist) classes_present += c > 0 ? 1 : 0;
    EXPECT_LE(classes_present, 2);
    EXPECT_GE(classes_present, 1);
  }
}

TEST(PartitionClassSkew, PartsAreDisjoint) {
  auto pool = blob_pool(2000);
  util::Rng rng{4};
  const auto parts = partition_class_skew(pool, 8, 30, 1, rng);
  std::set<std::uint32_t> seen;
  for (const auto& part : parts) {
    for (std::uint32_t i : part.indices()) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
}

TEST(PartitionClassSkew, ExhaustionThrowsInsteadOfDuplicating) {
  auto pool = blob_pool(100);  // ~25 per class
  util::Rng rng{5};
  EXPECT_THROW(partition_class_skew(pool, 20, 30, 1, rng),
               std::invalid_argument);
}

TEST(PartitionClassSkew, PoolSizedFromThePreconditionNeverRunsDry) {
  // sim_speed --fast's paper-CNN run: 40 vehicles x 40 samples from 2 of
  // 10 classes. Its old fixed pool of 2000 ran a class dry.
  const std::size_t pool_size = class_skew_pool_size(40, 40, 2, 10);
  EXPECT_GT(pool_size, 2000U);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    GaussianBlobConfig cfg;
    cfg.num_classes = 10;
    cfg.seed = seed;
    auto pool = ml::DatasetView::all(
        std::make_shared<ml::Dataset>(make_gaussian_blobs(pool_size, cfg)));
    util::Rng rng{seed};
    EXPECT_NO_THROW(partition_class_skew(pool, 40, 40, 2, rng)) << seed;
  }
  // More demand per class needs a larger pool.
  EXPECT_GT(class_skew_pool_size(40, 80, 2, 10), pool_size);
  EXPECT_GT(class_skew_pool_size(40, 40, 1, 10), pool_size);
  EXPECT_THROW((void)class_skew_pool_size(40, 40, 0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)class_skew_pool_size(40, 40, 11, 10),
               std::invalid_argument);
}

TEST(PartitionClassSkew, ValidatesArguments) {
  auto pool = blob_pool(100);
  util::Rng rng{5};
  EXPECT_THROW(partition_class_skew(pool, 0, 10, 1, rng),
               std::invalid_argument);
  EXPECT_THROW(partition_class_skew(pool, 2, 10, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(partition_class_skew(pool, 2, 10, 5, rng),
               std::invalid_argument);  // only 4 classes exist
}

TEST(PartitionDirichlet, AssignsEverySampleExactlyOnce) {
  auto pool = blob_pool(500);
  util::Rng rng{6};
  const auto parts = partition_dirichlet(pool, 7, 0.5, rng);
  ASSERT_EQ(parts.size(), 7U);
  std::set<std::uint32_t> seen;
  std::size_t total = 0;
  for (const auto& part : parts) {
    total += part.size();
    for (std::uint32_t i : part.indices()) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
  EXPECT_EQ(total, 500U);
}

TEST(PartitionDirichlet, Validates) {
  auto pool = blob_pool(50);
  util::Rng rng{6};
  EXPECT_THROW(partition_dirichlet(pool, 0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(partition_dirichlet(pool, 2, 0.0, rng), std::invalid_argument);
}

// Property: skewness ordering across distribution families. IID must be the
// least skewed, single-class the most, and Dirichlet monotone in 1/alpha.
TEST(PartitionSkewness, OrdersDistributionFamilies) {
  auto pool = blob_pool(4000, 21);
  util::Rng rng{7};
  const auto iid = partition_iid(pool, 20, 80, rng);
  const auto skew1 = partition_class_skew(pool, 20, 80, 1, rng);
  const auto skew2 = partition_class_skew(pool, 20, 80, 2, rng);
  const auto dir_flat = partition_dirichlet(pool, 20, 100.0, rng);
  const auto dir_peaky = partition_dirichlet(pool, 20, 0.1, rng);

  const double s_iid = partition_skewness(iid, pool);
  const double s_skew1 = partition_skewness(skew1, pool);
  const double s_skew2 = partition_skewness(skew2, pool);
  const double s_flat = partition_skewness(dir_flat, pool);
  const double s_peaky = partition_skewness(dir_peaky, pool);

  EXPECT_LT(s_iid, 0.2);
  EXPECT_GT(s_skew1, 0.7);
  EXPECT_LT(s_skew2, s_skew1);
  EXPECT_LT(s_flat, s_peaky);
  EXPECT_LT(s_iid, s_peaky);
}

// ------------------------------------------------------------- dataset io --

TEST(DatasetIo, SaveLoadRoundTrip) {
  const auto ds = make_gaussian_blobs(32);
  const std::string path = ::testing::TempDir() + "/rr_ds_roundtrip.bin";
  save_dataset(ds, path);
  const auto loaded = load_dataset(path);
  EXPECT_EQ(loaded.features(), ds.features());
  EXPECT_EQ(loaded.labels(), ds.labels());
  EXPECT_EQ(loaded.num_classes(), ds.num_classes());
  std::filesystem::remove(path);
}

TEST(DatasetIo, RejectsMissingAndCorruptFiles) {
  EXPECT_THROW(load_dataset("/nonexistent/nowhere.bin"), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/rr_ds_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a dataset", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_dataset(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(DatasetIo, SummaryMentionsKeyFacts) {
  const auto ds = make_gaussian_blobs(10);
  const std::string s = dataset_summary(ds);
  EXPECT_NE(s.find("10 samples"), std::string::npos);
  EXPECT_NE(s.find("4 classes"), std::string::npos);
}

}  // namespace
}  // namespace roadrunner::data
