// Micro-benchmarks for the ML substrate: tensor matmul, the paper CNN's
// forward/backward, FedAvg aggregation, model serialization, and the
// synthetic image dataset the CNN trains on. These bound the per-agent
// training cost that dominates learning experiments.
//
// Two modes:
//  * default — self-timed headline numbers (conv GFLOP/s, CNN train
//    steps/s, FedAvg merges/s, images/s, serialize MB/s) written to
//    BENCH_ml.json through the shared bench::BenchJson writer, the file
//    the CI perf lane tracks against main (tools/perf_compare.py);
//  * --gbench — the full google-benchmark suite below, for interactive
//    drill-down with proper statistical repetition.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "data/partition.hpp"
#include "data/synthetic_images.hpp"
#include "ml/fedavg.hpp"
#include "ml/gmm.hpp"
#include "ml/loss.hpp"
#include "ml/models.hpp"
#include "ml/robust.hpp"
#include "ml/serialize.hpp"
#include "ml/trainer.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace roadrunner;

/// Telemetry-like sample cloud: `n` points from `k` well-separated
/// Gaussians in `d` dims — the shape of one vehicle's recent window in the
/// streaming workload.
std::shared_ptr<ml::Dataset> telemetry_cloud(std::size_t n, std::size_t k,
                                             std::size_t d, std::uint64_t seed) {
  util::Rng rng{seed};
  ml::Tensor x{{n, d}};
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % k;
    labels[i] = static_cast<std::int32_t>(c);
    for (std::size_t j = 0; j < d; ++j) {
      const double center = (c == j % k) ? 4.0 : -4.0;
      x.values()[i * d + j] = static_cast<float>(center + rng.normal());
    }
  }
  return std::make_shared<ml::Dataset>(std::move(x), std::move(labels),
                                       static_cast<std::size_t>(k));
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng{1};
  ml::Tensor a{{n, n}}, b{{n, n}};
  for (float& v : a.values()) v = static_cast<float>(rng.uniform());
  for (float& v : b.values()) v = static_cast<float>(rng.uniform());
  ml::Tensor c{{n, n}};
  for (auto _ : state) {
    ml::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(128)->Arg(256);

ml::Dataset small_images(std::size_t n) {
  data::SyntheticImageConfig cfg;
  cfg.seed = 5;
  return data::make_synthetic_images(n, cfg);
}

void BM_PaperCnnForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto ds = std::make_shared<ml::Dataset>(small_images(batch));
  util::Rng rng{2};
  ml::Network net = ml::make_paper_cnn();
  ml::prime_and_init(net, {3, 32, 32}, rng);
  auto view = ml::DatasetView::all(ds);
  ml::Tensor x;
  std::vector<std::int32_t> y;
  view.gather_batch(0, batch, x, y);
  for (auto _ : state) {
    ml::Tensor out = net.forward(x);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PaperCnnForward)->Arg(1)->Arg(16);

void BM_PaperCnnTrainStep(benchmark::State& state) {
  auto ds = std::make_shared<ml::Dataset>(small_images(16));
  util::Rng rng{3};
  ml::Network net = ml::make_paper_cnn();
  ml::prime_and_init(net, {3, 32, 32}, rng);
  auto view = ml::DatasetView::all(ds);
  ml::Tensor x;
  std::vector<std::int32_t> y;
  view.gather_batch(0, 16, x, y);
  for (auto _ : state) {
    net.zero_grad();
    ml::Tensor logits = net.forward(x);
    auto loss = ml::softmax_cross_entropy(logits, y);
    net.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_PaperCnnTrainStep);

void BM_VehicleRetrain(benchmark::State& state) {
  // The paper's per-vehicle unit of work: 2 epochs of SGD on 80 samples.
  auto ds = std::make_shared<ml::Dataset>(small_images(80));
  util::Rng rng{4};
  ml::Network net = ml::make_paper_cnn();
  ml::prime_and_init(net, {3, 32, 32}, rng);
  auto view = ml::DatasetView::all(ds);
  ml::TrainConfig cfg;
  cfg.epochs = 2;
  for (auto _ : state) {
    ml::Network local = net;
    util::Rng job{42};
    auto report = ml::train_sgd(local, view, cfg, job);
    benchmark::DoNotOptimize(report.final_loss);
  }
}
BENCHMARK(BM_VehicleRetrain);

void BM_FedAvg(benchmark::State& state) {
  const auto contributors = static_cast<std::size_t>(state.range(0));
  util::Rng rng{5};
  ml::Network net = ml::make_paper_cnn();
  ml::prime_and_init(net, {3, 32, 32}, rng);
  std::vector<ml::WeightedModel> contributions;
  for (std::size_t i = 0; i < contributors; ++i) {
    net.init_params(rng);
    contributions.push_back(ml::WeightedModel{net.weights(), 80.0});
  }
  for (auto _ : state) {
    auto merged = ml::fed_avg(contributions);
    benchmark::DoNotOptimize(merged.weights.data());
  }
}
BENCHMARK(BM_FedAvg)->Arg(5)->Arg(15)->Arg(50);

void BM_RobustAggregate(benchmark::State& state) {
  const auto contributors = static_cast<std::size_t>(state.range(0));
  const auto kind = static_cast<ml::AggregatorKind>(state.range(1));
  util::Rng rng{8};
  ml::Network net = ml::make_paper_cnn();
  ml::prime_and_init(net, {3, 32, 32}, rng);
  std::vector<ml::WeightedModel> contributions;
  for (std::size_t i = 0; i < contributors; ++i) {
    net.init_params(rng);
    contributions.push_back(ml::WeightedModel{net.weights(), 80.0});
  }
  ml::AggregatorConfig config;
  config.kind = kind;
  config.krum_select = contributors / 2 + 1;
  for (auto _ : state) {
    auto merged = ml::robust_aggregate(contributions, config);
    benchmark::DoNotOptimize(merged.model.weights.data());
  }
}
BENCHMARK(BM_RobustAggregate)
    ->ArgsProduct({{5, 15},
                   {static_cast<long>(ml::AggregatorKind::kTrimmedMean),
                    static_cast<long>(ml::AggregatorKind::kMedian),
                    static_cast<long>(ml::AggregatorKind::kNormClip),
                    static_cast<long>(ml::AggregatorKind::kKrum)}});

void BM_GmmEmStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto ds = telemetry_cloud(n, 3, 4, 21);
  auto view = ml::DatasetView::all(ds);
  util::Rng rng{22};
  ml::GmmModel model = ml::gmm_init(view, 3, rng);
  for (auto _ : state) {
    const ml::GmmSuffStats stats = ml::gmm_accumulate(model, view);
    model = ml::gmm_maximize(stats, model);
    benchmark::DoNotOptimize(model.mean.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GmmEmStep)->Arg(128)->Arg(512);

void BM_GmmSuffStatMerge(benchmark::State& state) {
  const auto contributors = static_cast<std::size_t>(state.range(0));
  auto ds = telemetry_cloud(512, 3, 4, 23);
  auto view = ml::DatasetView::all(ds);
  util::Rng rng{24};
  ml::GmmModel model = ml::gmm_init(view, 3, rng);
  std::vector<ml::WeightedModel> contributions;
  for (std::size_t i = 0; i < contributors; ++i) {
    auto shard = telemetry_cloud(128, 3, 4, 30 + i);
    contributions.push_back(ml::WeightedModel{
        ml::gmm_encode(ml::gmm_accumulate(model, ml::DatasetView::all(shard))),
        128.0});
  }
  for (auto _ : state) {
    auto merged = ml::fed_avg(contributions);
    benchmark::DoNotOptimize(merged.weights.data());
  }
}
BENCHMARK(BM_GmmSuffStatMerge)->Arg(5)->Arg(15)->Arg(50);

void BM_SerializeWeights(benchmark::State& state) {
  util::Rng rng{6};
  ml::Network net = ml::make_paper_cnn();
  ml::prime_and_init(net, {3, 32, 32}, rng);
  const auto w = net.weights();
  for (auto _ : state) {
    auto bytes = ml::serialize_weights(w);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ml::weights_byte_size(w)));
}
BENCHMARK(BM_SerializeWeights);

void BM_SyntheticImageGeneration(benchmark::State& state) {
  data::SyntheticImageConfig cfg;
  util::Rng rng{7};
  for (auto _ : state) {
    auto img = data::render_synthetic_image(3, cfg, rng);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_SyntheticImageGeneration);

// ---- self-timed headline mode (default) -----------------------------------

/// Calls fn repeatedly (after two warm-up calls) until `min_s` wall seconds
/// elapse; returns (elapsed seconds, iterations). Coarse by design — the
/// perf lane compares ratios against main with a 15% gate, so sub-percent
/// timer fidelity buys nothing here; use --gbench for that.
template <typename Fn>
std::pair<double, std::uint64_t> time_loop(Fn&& fn, double min_s) {
  fn();
  fn();
  util::Stopwatch sw;
  std::uint64_t iters = 0;
  do {
    fn();
    ++iters;
  } while (sw.elapsed_s() < min_s);
  return {sw.elapsed_s(), iters};
}

int headline_main(const util::CliArgs& args) {
  const double min_s = args.get_double("min-time", 0.5);
  bench::BenchJson json{"micro_ml"};
  double total_wall = 0.0;
  std::printf("=== ML substrate headline numbers ===\n\n");

  // Conv GFLOP/s: one Conv2D(3->16, k5) over a 16x3x32x32 batch. FLOPs are
  // counted as 2x the forward MACs the layer reports (multiply + add).
  {
    const std::size_t batch = 16;
    util::Rng rng{11};
    ml::Network net;
    net.append(std::make_unique<ml::Conv2D>(3, 16, 5));
    ml::prime_and_init(net, {3, 32, 32}, rng);
    ml::Tensor x{{batch, 3, 32, 32}};
    for (float& v : x.values()) v = static_cast<float>(rng.uniform());
    ml::Tensor out = net.forward(x);  // fixes spatial dims for flops_per_sample
    const double flops_per_batch =
        2.0 * static_cast<double>(net.flops_per_sample()) *
        static_cast<double>(batch);
    const auto [wall, iters] = time_loop(
        [&] {
          out = net.forward(x);
        },
        min_s);
    const double gflops =
        flops_per_batch * static_cast<double>(iters) / wall / 1e9;
    const double samples_per_s =
        static_cast<double>(iters * batch) / wall;
    std::printf("%-32s %8.2f GFLOP/s  %10.0f samples/s\n",
                "conv 3->16 k5, batch 16", gflops, samples_per_s);
    json.begin_run("conv 3->16 k5, batch 16");
    json.metric("gflops", gflops);
    json.metric("samples_per_s", samples_per_s);
    total_wall += wall;
  }

  // Paper CNN: forward-only throughput, then a full train step (forward +
  // loss + backward), both on the Fig. 4 batch size.
  {
    const std::size_t batch = 16;
    auto ds = std::make_shared<ml::Dataset>(small_images(batch));
    util::Rng rng{12};
    ml::Network net = ml::make_paper_cnn();
    ml::prime_and_init(net, {3, 32, 32}, rng);
    auto view = ml::DatasetView::all(ds);
    ml::Tensor x;
    std::vector<std::int32_t> y;
    view.gather_batch(0, batch, x, y);
    ml::Tensor out = net.forward(x);
    const double flops_per_batch =
        2.0 * static_cast<double>(net.flops_per_sample()) *
        static_cast<double>(batch);

    {
      const auto [wall, iters] = time_loop(
          [&] {
            out = net.forward(x);
          },
          min_s);
      const double gflops =
          flops_per_batch * static_cast<double>(iters) / wall / 1e9;
      const double samples_per_s = static_cast<double>(iters * batch) / wall;
      std::printf("%-32s %8.2f GFLOP/s  %10.0f samples/s\n",
                  "paper CNN forward, batch 16", gflops, samples_per_s);
      json.begin_run("paper CNN forward, batch 16");
      json.metric("gflops", gflops);
      json.metric("samples_per_s", samples_per_s);
      total_wall += wall;
    }
    {
      const auto [wall, iters] = time_loop(
          [&] {
            net.zero_grad();
            ml::Tensor logits = net.forward(x);
            auto loss = ml::softmax_cross_entropy(logits, y);
            net.backward(loss.grad);
          },
          min_s);
      const double steps_per_s = static_cast<double>(iters) / wall;
      const double samples_per_s = static_cast<double>(iters * batch) / wall;
      std::printf("%-32s %8.2f steps/s   %10.0f samples/s\n",
                  "paper CNN train step, batch 16", steps_per_s,
                  samples_per_s);
      json.begin_run("paper CNN train step, batch 16");
      json.metric("steps_per_s", steps_per_s);
      json.metric("samples_per_s", samples_per_s);
      total_wall += wall;
    }
  }

  // FedAvg over 15 contributors — the aggregation cost of one busy round.
  {
    util::Rng rng{13};
    ml::Network net = ml::make_paper_cnn();
    ml::prime_and_init(net, {3, 32, 32}, rng);
    std::vector<ml::WeightedModel> contributions;
    for (std::size_t i = 0; i < 15; ++i) {
      net.init_params(rng);
      contributions.push_back(ml::WeightedModel{net.weights(), 80.0});
    }
    const auto [wall, iters] = time_loop(
        [&] {
          auto merged = ml::fed_avg(contributions);
          static_cast<void>(merged);
        },
        min_s);
    const double merges_per_s = static_cast<double>(iters) / wall;
    std::printf("%-32s %8.2f merges/s\n", "fedavg, 15 contributors",
                merges_per_s);
    json.begin_run("fedavg, 15 contributors");
    json.metric("merges_per_s", merges_per_s);
    total_wall += wall;
  }

  // Robust aggregators over the same 15 contributions — what a defended
  // round pays instead of the plain mean. Krum is the expensive one
  // (O(n^2) pairwise distances over full weight vectors); trimmed mean and
  // median pay a per-coordinate sort of n values.
  {
    util::Rng rng{15};
    ml::Network net = ml::make_paper_cnn();
    ml::prime_and_init(net, {3, 32, 32}, rng);
    std::vector<ml::WeightedModel> contributions;
    for (std::size_t i = 0; i < 15; ++i) {
      net.init_params(rng);
      contributions.push_back(ml::WeightedModel{net.weights(), 80.0});
    }
    const struct {
      const char* label;
      ml::AggregatorConfig config;
    } defenses[] = {
        {"trimmed_mean, 15 contributors",
         {.kind = ml::AggregatorKind::kTrimmedMean, .trim_fraction = 0.2}},
        {"median, 15 contributors", {.kind = ml::AggregatorKind::kMedian}},
        {"norm_clip, 15 contributors", {.kind = ml::AggregatorKind::kNormClip}},
        {"krum, 15 contributors",
         {.kind = ml::AggregatorKind::kKrum, .krum_select = 9}},
    };
    for (const auto& defense : defenses) {
      const auto [wall, iters] = time_loop(
          [&] {
            auto merged = ml::robust_aggregate(contributions, defense.config);
            static_cast<void>(merged);
          },
          min_s);
      const double merges_per_s = static_cast<double>(iters) / wall;
      std::printf("%-32s %8.2f merges/s\n", defense.label, merges_per_s);
      json.begin_run(defense.label);
      json.metric("merges_per_s", merges_per_s);
      total_wall += wall;
    }
  }

  // GMM EM step — the per-iteration cost of the streaming telemetry
  // workload's local training (accumulate + maximize over one vehicle's
  // recent window; DESIGN.md §13).
  {
    auto ds = telemetry_cloud(512, 3, 4, 16);
    auto view = ml::DatasetView::all(ds);
    util::Rng rng{17};
    ml::GmmModel model = ml::gmm_init(view, 3, rng);
    const auto [wall, iters] = time_loop(
        [&] {
          const ml::GmmSuffStats stats = ml::gmm_accumulate(model, view);
          model = ml::gmm_maximize(stats, model);
        },
        min_s);
    const double steps_per_s = static_cast<double>(iters) / wall;
    const double samples_per_s = static_cast<double>(iters * 512) / wall;
    std::printf("%-32s %8.2f steps/s   %10.0f samples/s\n",
                "gmm em step, k3 d4 n512", steps_per_s, samples_per_s);
    json.begin_run("gmm em step, k3 d4 n512");
    json.metric("em_steps_per_s", steps_per_s);
    json.metric("samples_per_s", samples_per_s);
    total_wall += wall;
  }

  // GMM sufficient-statistics merge over 15 contributors — what one drift
  // round's aggregation pays: the normalized-stat encodings pool through
  // the same data-amount-weighted fed_avg the nets use.
  {
    auto ds = telemetry_cloud(512, 3, 4, 18);
    auto view = ml::DatasetView::all(ds);
    util::Rng rng{19};
    const ml::GmmModel model = ml::gmm_init(view, 3, rng);
    std::vector<ml::WeightedModel> contributions;
    for (std::size_t i = 0; i < 15; ++i) {
      auto shard = telemetry_cloud(128, 3, 4, 40 + i);
      contributions.push_back(ml::WeightedModel{
          ml::gmm_encode(
              ml::gmm_accumulate(model, ml::DatasetView::all(shard))),
          128.0});
    }
    const auto [wall, iters] = time_loop(
        [&] {
          auto merged = ml::fed_avg(contributions);
          static_cast<void>(merged);
        },
        min_s);
    const double merges_per_s = static_cast<double>(iters) / wall;
    std::printf("%-32s %8.2f merges/s\n", "gmm suffstat merge, 15 contrib",
                merges_per_s);
    json.begin_run("gmm suffstat merge, 15 contrib");
    json.metric("suffstat_merges_per_s", merges_per_s);
    total_wall += wall;
  }

  // Synthetic images: the fig4_cnn workload's dataset (the class-skew pool
  // for 60 vehicles x 32 samples, plus a 500-image test set) with the Fig. 4
  // noise settings: what every image scenario pays before its first event.
  {
    data::SyntheticImageConfig cfg;
    cfg.noise_sigma = 0.85;
    cfg.gain_jitter = 0.45;
    const std::size_t count =
        data::class_skew_pool_size(60, 32, 1, cfg.num_classes) + 500;
    const auto [wall, iters] = time_loop(
        [&] {
          auto ds = data::make_synthetic_images(count, cfg);
          static_cast<void>(ds);
        },
        min_s);
    const double images_per_s =
        static_cast<double>(iters * count) / wall;
    std::printf("%-32s %10.0f images/s\n",
                "synthetic images, fig4_cnn dataset", images_per_s);
    json.begin_run("synthetic images, fig4_cnn dataset");
    json.metric("images_per_s", images_per_s);
    total_wall += wall;
  }

  // Weight serialization — what every model transfer in the simulator pays.
  {
    util::Rng rng{14};
    ml::Network net = ml::make_paper_cnn();
    ml::prime_and_init(net, {3, 32, 32}, rng);
    const auto w = net.weights();
    const double bytes = static_cast<double>(ml::weights_byte_size(w));
    const auto [wall, iters] = time_loop(
        [&] {
          auto blob = ml::serialize_weights(w);
          static_cast<void>(blob);
        },
        min_s);
    const double mb_per_s = bytes * static_cast<double>(iters) / wall / 1e6;
    std::printf("%-32s %8.2f MB/s\n", "serialize weights", mb_per_s);
    json.begin_run("serialize weights");
    json.metric("mb_per_s", mb_per_s);
    total_wall += wall;
  }

  json.total("total_wall_s", total_wall);
  std::printf("\n");
  json.write(args.get("json", "BENCH_ml.json"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args{argc, argv};
  if (args.get_bool("gbench", false)) {
    // Hand google-benchmark a bare argv (our flags are not its flags).
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return headline_main(args);
}
