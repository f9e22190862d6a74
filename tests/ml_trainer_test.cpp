#include "ml/trainer.hpp"

#include <gtest/gtest.h>

#include "data/gaussian_blobs.hpp"
#include "data/synthetic_images.hpp"
#include "ml/models.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

DatasetView blob_view(std::size_t n, std::uint64_t seed = 5) {
  data::GaussianBlobConfig cfg;
  cfg.seed = seed;
  return DatasetView::all(
      std::make_shared<Dataset>(data::make_gaussian_blobs(n, cfg)));
}

TEST(Trainer, LossDecreasesOnLearnableProblem) {
  auto view = blob_view(400);
  util::Rng rng{1};
  Network net = make_mlp(16, 32, 4);
  prime_and_init(net, {16}, rng);

  const auto before = evaluate(net, view);
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.learning_rate = 0.05F;
  util::Rng train_rng{2};
  const auto report = train_sgd(net, view, cfg, train_rng);
  const auto after = evaluate(net, view);

  EXPECT_LT(after.loss, before.loss);
  EXPECT_GT(after.accuracy, 0.8);
  EXPECT_GT(report.final_accuracy, 0.7);
  EXPECT_EQ(report.samples_seen, 400U * 5);
  EXPECT_EQ(report.steps, (400U / cfg.batch_size) * 5);
  EXPECT_GT(report.flops, 0U);
}

TEST(Trainer, DeterministicGivenSeed) {
  auto view = blob_view(128);
  TrainConfig cfg;
  cfg.epochs = 2;

  auto run = [&](std::uint64_t seed) {
    util::Rng init{7};
    Network net = make_mlp(16, 16, 4);
    prime_and_init(net, {16}, init);
    util::Rng rng{seed};
    train_sgd(net, view, cfg, rng);
    return net.weights();
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(Trainer, ShuffleOffIsOrderDeterministic) {
  auto view = blob_view(64);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.shuffle = false;
  util::Rng init{7};
  Network net = make_mlp(16, 16, 4);
  prime_and_init(net, {16}, init);
  Network net2 = net;
  util::Rng r1{1}, r2{999};  // rng unused when shuffle is off
  train_sgd(net, view, cfg, r1);
  train_sgd(net2, view, cfg, r2);
  EXPECT_EQ(net.weights(), net2.weights());
}

TEST(Trainer, ValidatesArguments) {
  auto view = blob_view(16);
  util::Rng rng{1};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(train_sgd(net, view, cfg, rng), std::invalid_argument);
  cfg.epochs = 1;
  cfg.batch_size = 0;
  EXPECT_THROW(train_sgd(net, view, cfg, rng), std::invalid_argument);
  DatasetView empty{view.base_ptr(), {}};
  cfg.batch_size = 8;
  EXPECT_THROW(train_sgd(net, empty, cfg, rng), std::invalid_argument);
}

TEST(Trainer, PartialFinalBatchHandled) {
  auto view = blob_view(50);  // 50 % 16 != 0
  util::Rng rng{1};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  TrainConfig cfg;
  cfg.epochs = 1;
  const auto report = train_sgd(net, view, cfg, rng);
  EXPECT_EQ(report.samples_seen, 50U);
  EXPECT_EQ(report.steps, 4U);  // 16+16+16+2
}

TEST(Evaluate, ParallelAndSerialAgree) {
  auto view = blob_view(333);
  util::Rng rng{9};
  Network net = make_mlp(16, 16, 4);
  prime_and_init(net, {16}, rng);
  const auto serial = evaluate(net, view, 64, /*parallel=*/false);
  const auto parallel = evaluate(net, view, 64, /*parallel=*/true);
  EXPECT_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_DOUBLE_EQ(serial.loss, parallel.loss);
  EXPECT_EQ(serial.samples, 333U);
}

TEST(Evaluate, EmptyViewReturnsZeroes) {
  auto view = blob_view(8);
  DatasetView empty{view.base_ptr(), {}};
  util::Rng rng{9};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  const auto r = evaluate(net, empty);
  EXPECT_EQ(r.samples, 0U);
  EXPECT_EQ(r.accuracy, 0.0);
}

TEST(Evaluate, SubsetViewEvaluatesOnlySubset) {
  auto view = blob_view(100);
  DatasetView subset{view.base_ptr(), {0, 1, 2, 3, 4}};
  util::Rng rng{9};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  EXPECT_EQ(evaluate(net, subset).samples, 5U);
}

// FNV-1a over the raw bytes of float tensors: changes when any bit of any
// value changes, so it pins the exact reduction order of the ML kernels.
std::uint64_t fnv1a(std::uint64_t h, const Tensor& t) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// Digests recorded before the GEMM kernels were rewritten (DESIGN.md §10.4:
// every kernel path adds each output's products in ascending k, without
// FMA). A kernel that reorders a sum, fuses a multiply-add or flushes
// denormals changes them.
TEST(TrainingDigest, PaperCnnWeightsAfterFourSgdSteps) {
  data::SyntheticImageConfig images;
  images.seed = 11;
  auto view = DatasetView::all(
      std::make_shared<Dataset>(data::make_synthetic_images(64, images)));
  util::Rng init{21};
  Network net = make_paper_cnn(3, 32, 10);
  prime_and_init(net, {3, 32, 32}, init);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  util::Rng rng{31};
  ASSERT_EQ(train_sgd(net, view, cfg, rng).steps, 4U);
  std::uint64_t h = kFnvOffset;
  for (const Tensor& t : net.weights()) h = fnv1a(h, t);
  EXPECT_EQ(h, 0xe21a0ddd5ae29373ULL);
}

TEST(TrainingDigest, Conv2DBackwardGradients) {
  struct Case {
    std::size_t cin, cout, k, stride, pad, side;
    std::uint64_t dw, dx;
  };
  // The paper CNN's two convolutions, plus a strided, padded one.
  const Case cases[] = {
      {3, 6, 5, 1, 0, 32, 0x19c21f04fc93823dULL, 0xb2e1b5c6c4d233ecULL},
      {6, 16, 5, 1, 0, 14, 0x9c53e450c3fe06e0ULL, 0x0099d0b07fb91e29ULL},
      {4, 5, 3, 2, 1, 9, 0x3c0d159d9d98920dULL, 0xaa5e7ec5d3c9991aULL}};
  for (const Case& c : cases) {
    util::Rng rng{c.cin * 100 + c.cout};
    Conv2D conv{c.cin, c.cout, c.k, c.stride, c.pad};
    conv.init_params(rng);
    Tensor x{{4, c.cin, c.side, c.side}};
    testing::randomize(x, rng);
    const Tensor y = conv.forward(x);
    Tensor grad{y.shape()};
    testing::randomize(grad, rng);
    const Tensor dx = conv.backward(grad);
    const std::uint64_t dw = fnv1a(kFnvOffset, *conv.grads()[0]);
    const std::uint64_t dxh = fnv1a(kFnvOffset, dx);
    EXPECT_EQ(dw, c.dw) << "cin " << c.cin;
    EXPECT_EQ(dxh, c.dx) << "cin " << c.cin;
  }
}

}  // namespace
}  // namespace roadrunner::ml
