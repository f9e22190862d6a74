// A Trunk (a network's leading run of Conv2D/ReLU/MaxPool2D, or one such
// layer called on its own) shards a batch's samples over the global thread
// pool (DESIGN.md §10.4). Sharding must not change a byte:
//  * a batch-N Conv2D call has to equal N single-sample calls (which never
//    shard) in y, dx, dW and db, on the paper CNN's two convolutions and on
//    a strided, padded one that takes the general im2col/col2im path;
//  * a network's trunk, run as one region, has to equal its layers called
//    one by one, and SGD on the paper CNN has to write the same weights on
//    the main thread, inside a global-pool worker (where the trunk runs
//    inline), inside another pool's worker and on two threads at once.
// On a one-core host the pool has one worker and every call runs serially;
// the comparisons still hold.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "data/synthetic_images.hpp"
#include "ml/layers.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

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

struct NetPass {
  Tensor y, dx;
  Weights grads;
};

Weights copy_grads(const std::vector<Tensor*>& grads) {
  Weights out;
  for (const Tensor* g : grads) out.push_back(*g);
  return out;
}

/// Forward then backward through a copy of `proto` (gradients start at 0).
NetPass through_network(const Network& proto, const Tensor& x,
                        const Tensor& grad) {
  Network net = proto;
  net.zero_grad();
  NetPass out;
  out.y = net.forward(x);
  out.dx = net.backward(grad);
  out.grads = copy_grads(net.grads());
  return out;
}

/// The same pass with every layer of `proto` called on its own, in turn.
NetPass layer_by_layer(const Network& proto, const Tensor& x,
                       const Tensor& grad) {
  std::vector<std::unique_ptr<Layer>> layers;
  for (std::size_t i = 0; i < proto.layer_count(); ++i) {
    layers.push_back(proto.layer(i).clone());
  }
  NetPass out;
  out.y = x;
  for (auto& l : layers) out.y = l->forward(out.y);
  out.dx = grad;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    out.dx = (*it)->backward(out.dx);
  }
  for (auto& l : layers) {
    for (Tensor* g : l->grads()) out.grads.push_back(*g);
  }
  return out;
}

void expect_same_pass(const NetPass& a, const NetPass& b, std::size_t n) {
  EXPECT_TRUE(same_bytes(a.y, b.y)) << "n " << n;
  EXPECT_TRUE(same_bytes(a.dx, b.dx)) << "n " << n;
  ASSERT_EQ(a.grads.size(), b.grads.size());
  for (std::size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_TRUE(same_bytes(a.grads[i], b.grads[i]))
        << "n " << n << " grad " << i;
  }
}

constexpr std::size_t kBatches[] = {1, 2, 5, 16, 17};

Network paper_cnn() {
  util::Rng init{5};
  Network net = make_paper_cnn(3, 32, 10);
  prime_and_init(net, {3, 32, 32}, init);
  return net;
}

TEST(ConvShard, PaperCnnTrunkEqualsLayerByLayerCalls) {
  const Network proto = paper_cnn();
  EXPECT_EQ(proto.trunk_length(), 6U);  // conv-ReLU-pool, twice
  for (std::size_t n : kBatches) {
    util::Rng rng{n};
    Tensor x{{n, 3, 32, 32}};
    testing::randomize(x, rng);
    Tensor grad{{n, 10}};
    testing::randomize(grad, rng);
    expect_same_pass(through_network(proto, x, grad),
                     layer_by_layer(proto, x, grad), n);
  }
}

TEST(ConvShard, DropoutEndsAStridedPaddedTrunk) {
  Network proto;
  proto.append(std::make_unique<Conv2D>(3, 4, 3, 2, 1));
  proto.append(std::make_unique<ReLU>());
  proto.append(std::make_unique<Dropout>(0.25F));
  proto.append(std::make_unique<MaxPool2D>());
  proto.append(std::make_unique<Flatten>());
  proto.append(std::make_unique<Linear>(4 * 4 * 4, 3));
  util::Rng init{8};
  prime_and_init(proto, {3, 17, 17}, init);
  EXPECT_EQ(proto.trunk_length(), 2U);
  for (std::size_t n : kBatches) {
    util::Rng rng{100 + n};
    Tensor x{{n, 3, 17, 17}};
    testing::randomize(x, rng);
    Tensor grad{{n, 3}};
    testing::randomize(grad, rng);
    expect_same_pass(through_network(proto, x, grad),
                     layer_by_layer(proto, x, grad), n);
  }
}

/// Paper-CNN weights after SGD steps (two per epoch) on batches of n.
Weights trained_weights(std::size_t n) {
  data::SyntheticImageConfig images;
  images.seed = 9;
  auto view = DatasetView::all(
      std::make_shared<Dataset>(data::make_synthetic_images(2 * n, images)));
  Network net = paper_cnn();
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = n;
  util::Rng rng{n};
  train_sgd(net, view, cfg, rng);
  return net.weights();
}

/// trained_weights(n) as a task of `pool`, the caller waiting for it.
Weights trained_in_worker(util::ThreadPool& pool, std::size_t n) {
  std::promise<Weights> result;
  pool.submit([&] { result.set_value(trained_weights(n)); });
  return result.get_future().get();
}

void expect_same_weights(const Weights& a, const Weights& b,
                         const char* where, std::size_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bytes(a[i], b[i])) << where << " n " << n << " " << i;
  }
}

TEST(ConvShard, PaperCnnSgdSameBytesOnEveryThread) {
  util::ThreadPool one{1};
  for (std::size_t n : kBatches) {
    const Weights main = trained_weights(n);
    expect_same_weights(
        main, trained_in_worker(util::ThreadPool::global(), n),
        "global-pool worker", n);
    expect_same_weights(main, trained_in_worker(one, n), "ThreadPool(1)", n);
  }
}

TEST(ConvShard, PaperCnnSgdSameBytesFromTwoCallers) {
  const Weights alone = trained_weights(16);
  Weights outs[2];
  std::vector<std::thread> callers;
  for (Weights& out : outs) {
    callers.emplace_back([&out] { out = trained_weights(16); });
  }
  for (auto& t : callers) t.join();
  for (const Weights& out : outs) {
    expect_same_weights(alone, out, "concurrent", 16);
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
