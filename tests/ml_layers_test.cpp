// Gradient checks and behaviour tests for every layer. Each layer's
// analytic backward pass is validated against central finite differences
// through a softmax cross-entropy head — the strongest correctness evidence
// the ML substrate has.
#include "ml/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ml/loss.hpp"
#include "ml/net.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

using roadrunner::testing::expect_gradients_match;
using roadrunner::testing::randomize;

Network single_layer_net(std::unique_ptr<Layer> layer) {
  Network net;
  net.append(std::move(layer));
  return net;
}

TEST(Linear, ForwardMatchesManualComputation) {
  Linear lin{2, 3};
  util::Rng rng{1};
  lin.init_params(rng);
  // Overwrite with known weights.
  *lin.params()[0] = Tensor{{3, 2}, {1, 2, 3, 4, 5, 6}};
  *lin.params()[1] = Tensor{{3}, {0.5, -0.5, 1.0}};
  Tensor x{{1, 2}, {10, 20}};
  Tensor y = lin.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 3}));
  EXPECT_FLOAT_EQ(y[0], 1 * 10 + 2 * 20 + 0.5F);
  EXPECT_FLOAT_EQ(y[1], 3 * 10 + 4 * 20 - 0.5F);
  EXPECT_FLOAT_EQ(y[2], 5 * 10 + 6 * 20 + 1.0F);
}

TEST(Linear, GradientCheck) {
  util::Rng rng{2};
  Network net = single_layer_net(std::make_unique<Linear>(5, 4));
  net.init_params(rng);
  Tensor x{{3, 5}};
  randomize(x, rng);
  expect_gradients_match(net, x, {0, 2, 3});
}

TEST(Linear, RejectsBadInput) {
  Linear lin{4, 2};
  Tensor wrong{{2, 3}};
  EXPECT_THROW(lin.forward(wrong), std::invalid_argument);
  Tensor rank1{{4}};
  EXPECT_THROW(lin.forward(rank1), std::invalid_argument);
  EXPECT_THROW((Linear{0, 2}), std::invalid_argument);
}

TEST(Linear, BackwardWithoutForwardThrows) {
  Linear lin{2, 2};
  Tensor g{{1, 2}};
  EXPECT_THROW(lin.backward(g), std::logic_error);
}

TEST(Conv2D, OutputShapeAndKnownValue) {
  Conv2D conv{1, 1, 2};
  // Kernel = [[1, 0], [0, 1]] (trace of each 2x2 window), bias 0.
  *conv.params()[0] = Tensor{{1, 1, 2, 2}, {1, 0, 0, 1}};
  *conv.params()[1] = Tensor{{1}, {0}};
  Tensor x{{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9}};
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 1 + 5);
  EXPECT_FLOAT_EQ(y[1], 2 + 6);
  EXPECT_FLOAT_EQ(y[2], 4 + 8);
  EXPECT_FLOAT_EQ(y[3], 5 + 9);
}

TEST(Conv2D, BiasApplied) {
  Conv2D conv{1, 2, 1};
  *conv.params()[0] = Tensor{{2, 1, 1, 1}, {1, 2}};
  *conv.params()[1] = Tensor{{2}, {10, 20}};
  Tensor x{{1, 1, 1, 1}, {3}};
  Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y[0], 13);
  EXPECT_FLOAT_EQ(y[1], 26);
}

TEST(Conv2D, GradientCheck) {
  util::Rng rng{3};
  Network net;
  net.append(std::make_unique<Conv2D>(2, 3, 3));
  net.append(std::make_unique<Flatten>());
  net.init_params(rng);
  Tensor x{{2, 2, 5, 5}};
  randomize(x, rng);
  expect_gradients_match(net, x, {1, 0});
}

TEST(Conv2D, RejectsBadInput) {
  Conv2D conv{3, 4, 5};
  Tensor wrong_channels{{1, 2, 8, 8}};
  EXPECT_THROW(conv.forward(wrong_channels), std::invalid_argument);
  Tensor too_small{{1, 3, 4, 4}};
  EXPECT_THROW(conv.forward(too_small), std::invalid_argument);
}

TEST(MaxPool2D, SelectsMaxima) {
  MaxPool2D pool;
  Tensor x{{1, 1, 2, 4}, {1, 9, 2, 3, 4, 5, 8, 6}};
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 9);
  EXPECT_FLOAT_EQ(y[1], 8);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool;
  Tensor x{{1, 1, 2, 2}, {1, 4, 3, 2}};
  pool.forward(x);
  Tensor g{{1, 1, 1, 1}, {5}};
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0);
  EXPECT_FLOAT_EQ(dx[1], 5);
  EXPECT_FLOAT_EQ(dx[2], 0);
  EXPECT_FLOAT_EQ(dx[3], 0);
}

TEST(MaxPool2D, FirstMaximumWinsAndNanRules) {
  // Four windows: a tie (the first 3 wins), a NaN candidate (never wins),
  // a NaN first cell (it sticks) and -0 before +0 (the first zero wins).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2D pool;
  Tensor x{{1, 1, 2, 8},
           {3, 3, 1, nan, nan, 5, -0.0F, 0.0F,  //
            1, 3, 2, 0, 7, 9, -1, -2}};
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 4}));
  EXPECT_EQ(y[0], 3.0F);
  EXPECT_EQ(y[1], 2.0F);
  EXPECT_TRUE(std::isnan(y[2]));
  EXPECT_EQ(y[3], 0.0F);
  EXPECT_TRUE(std::signbit(y[3]));
  Tensor g{{1, 1, 1, 4}, {10, 20, 30, 40}};
  Tensor dx = pool.backward(g);
  for (std::size_t i = 0; i < dx.size(); ++i) {
    const float want = i == 0    ? 10.0F
                       : i == 10 ? 20.0F
                       : i == 4  ? 30.0F
                       : i == 6  ? 40.0F
                                 : 0.0F;
    EXPECT_EQ(dx[i], want) << "cell " << i;
  }
}

TEST(MaxPool2D, DropsOddTrailingEdges) {
  MaxPool2D pool;
  Tensor x{{1, 1, 5, 5}};
  x.fill(1.0F);
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
}

TEST(MaxPool2D, GradientCheck) {
  util::Rng rng{4};
  Network net;
  net.append(std::make_unique<Conv2D>(1, 2, 2));  // produce varied values
  net.append(std::make_unique<MaxPool2D>());
  net.append(std::make_unique<Flatten>());
  net.init_params(rng);
  Tensor x{{2, 1, 5, 5}};
  randomize(x, rng);
  expect_gradients_match(net, x, {0, 1});
}

TEST(ReLU, ForwardAndBackward) {
  ReLU relu;
  Tensor x{{1, 4}, {-1, 0, 2, -3}};
  Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  Tensor g{{1, 4}, {10, 10, 10, 10}};
  Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0);
  EXPECT_FLOAT_EQ(dx[1], 0);  // gradient is 0 at exactly 0 (subgradient)
  EXPECT_FLOAT_EQ(dx[2], 10);
  EXPECT_FLOAT_EQ(dx[3], 0);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  Tensor x{{2, 3, 4, 5}};
  Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 60}));
  Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Layers, CloneIsDeepCopy) {
  util::Rng rng{5};
  Linear lin{3, 2};
  lin.init_params(rng);
  auto copy = lin.clone();
  auto* copy_lin = dynamic_cast<Linear*>(copy.get());
  ASSERT_NE(copy_lin, nullptr);
  // Same values...
  EXPECT_EQ(*copy_lin->params()[0], *lin.params()[0]);
  // ...but mutating the copy does not touch the original.
  (*copy_lin->params()[0])[0] += 1.0F;
  EXPECT_NE(*copy_lin->params()[0], *lin.params()[0]);
}

TEST(Layers, FlopsReporting) {
  Linear lin{10, 20};
  EXPECT_EQ(lin.flops_per_sample(), 200U);

  Conv2D conv{3, 6, 5};
  Tensor x{{1, 3, 32, 32}};
  util::Rng rng{6};
  conv.init_params(rng);
  conv.forward(x);
  EXPECT_EQ(conv.flops_per_sample(), 6ULL * 3 * 5 * 5 * 28 * 28);
}

// Deeper stack: gradient-check the paper's full CNN shape at reduced size.
TEST(Layers, StackedNetworkGradientCheck) {
  util::Rng rng{7};
  Network net;
  net.append(std::make_unique<Conv2D>(1, 3, 3));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<MaxPool2D>());
  net.append(std::make_unique<Flatten>());
  net.append(std::make_unique<Linear>(3 * 7 * 7, 8));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<Linear>(8, 3));
  net.init_params(rng);
  Tensor x{{2, 1, 16, 16}};
  randomize(x, rng);
  // Loose tolerance by design: a conv bias shifts an entire activation
  // plane, so a finite-difference step flips many ReLU kinks downstream and
  // biases the numeric estimate (the effect grows with eps, confirming it
  // is FD curvature, not a backward bug). Tight per-layer checks above
  // cover exactness; this test guards the composite wiring.
  expect_gradients_match(net, x, {0, 2}, /*tolerance=*/0.2,
                         /*max_checks=*/12, /*eps=*/1e-3);
}

}  // namespace
}  // namespace roadrunner::ml
