// Conv2D shards a batch's samples over the global thread pool
// (DESIGN.md §10.4). Sharding must not change a byte: a batch-N call has to
// equal N single-sample calls (which never shard) in y, dx, dW and db, on
// the paper CNN's two convolutions and on a strided, padded one that takes
// the general im2col/col2im path. On a one-core host the pool has one
// worker and every call runs serially; the comparisons still hold.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "data/synthetic_images.hpp"
#include "ml/layers.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

struct ConvCase {
  std::size_t cin, cout, k, stride, pad, side;
};

// The paper CNN's convolutions (3x32x32 images), then stride 2, padding 1.
constexpr ConvCase kCases[] = {{3, 6, 5, 1, 0, 32},
                               {6, 16, 5, 1, 0, 14},
                               {8, 16, 3, 2, 1, 32}};

struct ConvOut {
  Tensor y, dx, dw, db;
};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Forward then backward on a fresh copy of `proto` (gradients start at 0).
ConvOut run(const Conv2D& proto, const Tensor& x, const Tensor& grad) {
  auto layer = proto.clone();
  ConvOut out;
  out.y = layer->forward(x);
  out.dx = layer->backward(grad);
  out.dw = *layer->grads()[0];
  out.db = *layer->grads()[1];
  return out;
}

Tensor sample(const Tensor& batch, std::size_t s) {
  std::vector<std::size_t> shape = batch.shape();
  shape[0] = 1;
  Tensor one{shape};
  std::memcpy(one.data(), batch.data() + s * one.size(),
              one.size() * sizeof(float));
  return one;
}

/// The batch result rebuilt from N single-sample calls: y and dx per sample,
/// dW and db summed from zero in sample order (a sum that starts at +0 never
/// ends at -0, so adding it to zeroed gradients leaves its bytes as they
/// are).
ConvOut run_per_sample(const Conv2D& proto, const Tensor& x,
                       const Tensor& grad) {
  const std::size_t n = x.dim(0);
  ConvOut ref;
  for (std::size_t s = 0; s < n; ++s) {
    const ConvOut one = run(proto, sample(x, s), sample(grad, s));
    if (s == 0) {
      std::vector<std::size_t> y_shape = one.y.shape();
      y_shape[0] = n;
      ref.y = Tensor{y_shape};
      ref.dx = Tensor{x.shape()};
      ref.dw = Tensor{one.dw.shape()};
      ref.db = Tensor{one.db.shape()};
    }
    std::memcpy(ref.y.data() + s * one.y.size(), one.y.data(),
                one.y.size() * sizeof(float));
    std::memcpy(ref.dx.data() + s * one.dx.size(), one.dx.data(),
                one.dx.size() * sizeof(float));
    ref.dw.add_(one.dw);
    ref.db.add_(one.db);
  }
  return ref;
}

struct Inputs {
  Conv2D conv;
  Tensor x, grad;
};

Inputs make_inputs(const ConvCase& c, std::size_t n) {
  util::Rng rng{c.cin * 1000 + c.cout * 10 + n};
  Inputs in{Conv2D{c.cin, c.cout, c.k, c.stride, c.pad},
            Tensor{{n, c.cin, c.side, c.side}}, Tensor{}};
  in.conv.init_params(rng);
  testing::randomize(in.x, rng);
  const std::size_t out = (c.side + 2 * c.pad - c.k) / c.stride + 1;
  in.grad = Tensor{{n, c.cout, out, out}};
  testing::randomize(in.grad, rng);
  return in;
}

TEST(ConvShard, BatchEqualsPerSampleCallsByteForByte) {
  for (const ConvCase& c : kCases) {
    for (std::size_t n : {2U, 16U, 64U}) {
      const Inputs in = make_inputs(c, n);
      const ConvOut batch = run(in.conv, in.x, in.grad);
      const ConvOut ref = run_per_sample(in.conv, in.x, in.grad);
      EXPECT_TRUE(same_bytes(batch.y, ref.y)) << "cin " << c.cin << " n " << n;
      EXPECT_TRUE(same_bytes(batch.dx, ref.dx))
          << "cin " << c.cin << " n " << n;
      EXPECT_TRUE(same_bytes(batch.dw, ref.dw))
          << "cin " << c.cin << " n " << n;
      EXPECT_TRUE(same_bytes(batch.db, ref.db))
          << "cin " << c.cin << " n " << n;
    }
  }
}

TEST(ConvShard, ConcurrentCallersShareThePoolWithoutChangingBytes) {
  // Trainings on several threads call into the one global pool at once: a
  // call that is alone gets the pool's workers, the others run on their
  // own threads.
  const Inputs in = make_inputs(kCases[1], 16);
  const ConvOut alone = run(in.conv, in.x, in.grad);
  constexpr int kCallers = 4;
  std::vector<ConvOut> outs(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) outs[t] = run(in.conv, in.x, in.grad);
    });
  }
  for (auto& t : callers) t.join();
  for (const ConvOut& o : outs) {
    EXPECT_TRUE(same_bytes(o.y, alone.y));
    EXPECT_TRUE(same_bytes(o.dx, alone.dx));
    EXPECT_TRUE(same_bytes(o.dw, alone.dw));
    EXPECT_TRUE(same_bytes(o.db, alone.db));
  }
}

TEST(ConvShard, PaperCnnEvaluateParallelEqualsSerial) {
  // Parallel evaluation runs batches on pool workers (their convolutions
  // inline) and on the caller (its convolutions sharded).
  data::SyntheticImageConfig images;
  images.seed = 3;
  auto view = DatasetView::all(
      std::make_shared<Dataset>(data::make_synthetic_images(200, images)));
  util::Rng init{5};
  Network net = make_paper_cnn(3, 32, 10);
  prime_and_init(net, {3, 32, 32}, init);
  const EvalReport serial = evaluate(net, view, 32, /*parallel=*/false);
  const EvalReport parallel = evaluate(net, view, 32, /*parallel=*/true);
  EXPECT_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_EQ(serial.loss, parallel.loss);
  EXPECT_EQ(serial.samples, 200U);
}

}  // namespace
}  // namespace roadrunner::ml
