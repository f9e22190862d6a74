// rr_perfbench — the measuring program of the repository benchmark.
//
//   rr_perfbench --workload=<fig4_cnn|city_gossip|sweep_ckpt> --seed=N
//                --seconds=S --trace=0|1 [--size=full|smoke]
//                [--work-dir=DIR]
//
// Builds the workload's inputs from the seed, sets the workload up several
// times (setup_s is the median), then runs whole workload executions
// ("samples") until S seconds of measurement have passed, and prints one
// JSON document on stdout: the workload parameters, a digest of the
// generated inputs, every sample's deterministic outputs, and the metrics
// with their units. run.py checks the outputs, stamps provenance and prints
// the benchmark's result line.
//
// A workload whose speed depends on its inputs draws several input sets
// from the seed; sample i runs on set i mod (number of sets), and a time
// metric is the mean over the sets of each set's median over its samples.
//
// --trace=0 runs untraced samples only (the end-to-end metrics).
// --trace=1 alternates untraced and traced samples and adds the per-layer
// metrics. Every layer is measured from outside, through the library's
// public API: the existing telemetry spans (telemetry::set_enabled, then
// Telemetry::snapshot), direct timed calls into public functions, and the
// public stats (comm::ChannelStats, Simulator::RunReport).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "checkpoint/checkpoint.hpp"
#include "data/gaussian_blobs.hpp"
#include "data/partition.hpp"
#include "data/synthetic_images.hpp"
#include "ml/layers.hpp"
#include "mobility/city_model.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"
#include "strategy/gossip.hpp"
#include "strategy/opportunistic.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace roadrunner;
namespace fs = std::filesystem;

namespace {

// ----- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty list.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Times `fn` at least `min_reps` times and until `budget_s` has passed
/// (capped at `max_reps`); returns the median seconds per call.
template <typename Fn>
double median_call_s(Fn&& fn, std::size_t min_reps, double budget_s,
                     std::size_t max_reps = 1000) {
  std::vector<double> secs;
  const util::Stopwatch budget;
  while (secs.size() < min_reps ||
         (budget.elapsed_s() < budget_s && secs.size() < max_reps)) {
    const util::Stopwatch watch;
    fn();
    secs.push_back(watch.elapsed_s());
  }
  return median(std::move(secs));
}

// ----- JSON output -----------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  return std::isfinite(v) ? util::CsvWriter::field(v) : "null";
}

/// Insertion-ordered JSON object writer.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "]";
}

// ----- what a sample produces ------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One operation of a workload (one simulator run or one campaign job) and
/// its deterministic outputs, which run.py checks.
struct OpOutput {
  std::string name;
  std::string kind;  ///< "rounds", "gossip" or "centralized"
  double wall_s = 0.0;
  std::vector<std::pair<std::string, double>> values;
};

struct Sample {
  bool traced = false;
  std::size_t set = 0;  ///< input set the sample ran on
  double wall_s = 0.0;
  double sim_s = 0.0;     ///< simulated seconds over all ops
  double events = 0.0;    ///< RunReport::events_executed over all ops
  double vehicle_ticks = 0.0;
  std::array<comm::ChannelStats, comm::kChannelKindCount> channels{};
  std::vector<OpOutput> ops;
};

void add_channels(Sample& s, const scenario::RunResult& r) {
  for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
    s.channels[k].transfers_attempted += r.channel_stats[k].transfers_attempted;
    s.channels[k].transfers_delivered += r.channel_stats[k].transfers_delivered;
  }
}

/// Mobility ticks a run of `sim_end_s` executed: one per tick period.
double vehicle_ticks(std::size_t vehicles, double sim_end_s, double tick_s) {
  return static_cast<double>(vehicles) * std::floor(sim_end_s / tick_s);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ----- input sizing ----------------------------------------------------------

/// Input sets of fig4_cnn and sweep_ckpt. Their speed depends on the drawn
/// inputs (some fig4_cnn draws train the CNN ~25% slower, one sweep base
/// seed ran ~10% slower than another), so a run averages over several draws.
constexpr std::size_t kInputSets = 8;

/// Seed of input set `set`: the run's own seed for set 0, one drawn from it
/// for the others.
std::uint64_t input_set_seed(std::uint64_t seed, std::size_t set) {
  if (set == 0) return seed;
  return util::Rng{seed}.fork("input-set-" + std::to_string(set)).next();
}

/// P(X > m) for X ~ Binomial(n, p).
double binomial_upper_tail(std::size_t n, double p, std::size_t m) {
  double tail = 0.0;
  for (std::size_t k = m + 1; k <= n; ++k) {
    const double log_pmf = std::lgamma(static_cast<double>(n) + 1.0) -
                           std::lgamma(static_cast<double>(k) + 1.0) -
                           std::lgamma(static_cast<double>(n - k) + 1.0) +
                           static_cast<double>(k) * std::log(p) +
                           static_cast<double>(n - k) * std::log1p(-p);
    tail += std::exp(log_pmf);
  }
  return tail;
}

/// Training-pool size for which partition_class_skew's precondition — each
/// class pool holds the quota of every agent that picks that class — holds
/// for any seed except with negligible probability. The number of agents
/// picking one class is Binomial(agents, k/C); the number of pool samples of
/// one class is Binomial(pool, 1/C) (labels are uniform). Both are bounded
/// at a 1e-6 tail per class.
std::size_t class_skew_pool(std::size_t agents, std::size_t samples_per_agent,
                            std::size_t classes_per_agent,
                            std::size_t num_classes) {
  constexpr double kTail = 1e-6;
  const double pick = static_cast<double>(classes_per_agent) /
                      static_cast<double>(num_classes);
  std::size_t pickers = 0;
  while (pickers < agents &&
         binomial_upper_tail(agents, pick, pickers) > kTail) {
    ++pickers;
  }
  const std::size_t quota =
      (samples_per_agent + classes_per_agent - 1) / classes_per_agent;
  const double demand = static_cast<double>(pickers * quota);
  // Solve pool/C - z * sqrt(pool * (1/C) * (1 - 1/C)) >= demand with
  // z = 4.75 (normal tail ~1e-6), a quadratic in sqrt(pool).
  const double q = 1.0 / static_cast<double>(num_classes);
  const double b = 4.75 * std::sqrt(q * (1.0 - q));
  const double root = (b + std::sqrt(b * b + 4.0 * q * demand)) / (2.0 * q);
  return static_cast<std::size_t>(std::ceil(root * root));
}

// ----- trace analysis --------------------------------------------------------

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< duration minus child spans on the same thread
  std::vector<double> dur_s;
};

/// Spans aggregated by name, over all threads and over the event-loop
/// threads only (those that run the workload's loop-root span).
struct Profile {
  std::map<std::string, SpanTotals> all;
  std::map<std::string, SpanTotals> loop;

  [[nodiscard]] const SpanTotals& get(const std::string& name,
                                      bool loop_only = false) const {
    static const SpanTotals kEmpty;
    const auto& m = loop_only ? loop : all;
    auto it = m.find(name);
    return it == m.end() ? kEmpty : it->second;
  }
};

/// Folds one telemetry snapshot into `profile`. Spans on one thread are
/// properly nested (RAII), so a stack over start-ordered spans finds each
/// span's parent; a parent's self time excludes its direct children.
void accumulate(Profile& profile, std::vector<telemetry::SpanEvent> spans,
                const std::string& loop_root) {
  std::map<std::uint32_t, std::vector<const telemetry::SpanEvent*>> threads;
  for (const auto& s : spans) threads[s.tid].push_back(&s);
  for (auto& [tid, list] : threads) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->dur_ns > b->dur_ns;
    });
    const bool is_loop =
        std::any_of(list.begin(), list.end(),
                    [&](const auto* s) { return s->name == loop_root; });
    std::vector<std::uint64_t> child_ns(list.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto* s = list[i];
      while (!stack.empty()) {
        const auto* top = list[stack.back()];
        if (s->start_ns >= top->start_ns &&
            s->start_ns + s->dur_ns <= top->start_ns + top->dur_ns) {
          break;
        }
        stack.pop_back();
      }
      if (!stack.empty()) child_ns[stack.back()] += s->dur_ns;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const double dur = static_cast<double>(list[i]->dur_ns) * 1e-9;
      const double self =
          static_cast<double>(list[i]->dur_ns - std::min(list[i]->dur_ns,
                                                         child_ns[i])) *
          1e-9;
      for (auto* m : {&profile.all, is_loop ? &profile.loop : nullptr}) {
        if (m == nullptr) continue;
        SpanTotals& t = (*m)[list[i]->name];
        ++t.count;
        t.total_s += dur;
        t.self_s += self;
        t.dur_s.push_back(dur);
      }
    }
  }
}

/// The named layers and the spans that belong to each.
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> kLayers = {
      {"sim.run", "core"},
      {"sim.finish_training", "core"},
      {"sim.mobility_tick", "mobility"},
      {"sim.encounter_scan", "mobility"},
      {"sim.deliver", "comm"},
      {"ml.train_sgd", "ml"},
      {"ml.evaluate", "ml"},
      {"ml.fed_avg", "ml"},
      {"ml.robust_aggregate", "ml"},
      {"strategy.begin_round", "strategy"},
      {"strategy.close_round", "strategy"},
      {"strategy.finalize_round", "strategy"},
      {"checkpoint.autosave", "checkpoint"},
      {"checkpoint.save", "checkpoint"},
      {"checkpoint.restore", "checkpoint"},
      {"campaign.job", "campaign"},
      {"campaign.store_save", "campaign"},
  };
  return kLayers;
}

/// Samples the process's thread count from /proc/self/status every
/// millisecond while alive (traced samples only).
class ThreadSampler {
 public:
  ThreadSampler() : thread_{[this] { loop(); }} {}
  ~ThreadSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  /// Peak thread count, not counting the sampler itself.
  [[nodiscard]] int peak() const { return peak_.load() - 1; }

 private:
  static int read_threads() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
    }
    return 0;
  }
  void loop() {
    while (!stop_.load()) {
      const int now = read_threads();
      if (now > peak_.load()) peak_.store(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;  // last: starts after the fields it reads exist
};

// ----- direct layer probes ---------------------------------------------------

/// Times the generator and partitioner calls the Scenario constructor makes,
/// with the workload's configuration (their cost does not depend on the
/// seed).
void probe_setup(const scenario::ScenarioConfig& cfg, Metrics& m) {
  util::Stopwatch watch;
  mobility::CityModelConfig city = cfg.city;
  city.seed = cfg.seed;
  const mobility::FleetModel fleet =
      mobility::make_city_fleet(cfg.vehicles, city);
  m["setup.fleet_s"] = {watch.elapsed_s(), "s"};

  watch.restart();
  const std::size_t total = cfg.train_pool_size + cfg.test_size;
  std::shared_ptr<const ml::Dataset> dataset;
  if (cfg.dataset == "images") {
    data::SyntheticImageConfig ic = cfg.image_config;
    ic.seed = cfg.seed;
    dataset =
        std::make_shared<ml::Dataset>(data::make_synthetic_images(total, ic));
  } else {
    data::GaussianBlobConfig bc = cfg.blob_config;
    bc.seed = cfg.seed;
    dataset =
        std::make_shared<ml::Dataset>(data::make_gaussian_blobs(total, bc));
  }
  m["setup.data_s"] = {watch.elapsed_s(), "s"};

  watch.restart();
  const util::Rng master{cfg.seed};
  util::Rng split_rng = master.fork("split");
  util::Rng data_rng = master.fork("partition");
  const data::TrainTestSplit split = data::train_test_split(
      dataset,
      static_cast<double>(cfg.test_size) / static_cast<double>(dataset->size()),
      split_rng);
  const auto parts = data::partition_class_skew(
      split.train, cfg.vehicles, cfg.samples_per_vehicle,
      cfg.classes_per_vehicle, data_rng);
  m["setup.partition_s"] = {watch.elapsed_s(), "s"};
  if (parts.size() != cfg.vehicles || fleet.vehicle_count() != cfg.vehicles) {
    throw std::logic_error{"probe_setup: generator output size mismatch"};
  }
}

/// FleetModel::snapshot and ::encounters at 200 instants over the horizon.
void probe_mobility(const scenario::Scenario& sc, Metrics& m) {
  constexpr int kInstants = 200;
  const double horizon = sc.config().horizon_s;
  const double range = sc.config().net.v2x.range_m;
  std::vector<double> snapshot_us;
  double pairs = 0.0;
  std::size_t sink = 0;
  for (int i = 0; i < kInstants; ++i) {
    const double t = horizon * (i + 0.5) / kInstants;
    const util::Stopwatch watch;
    const auto snap = sc.fleet().snapshot(t);
    snapshot_us.push_back(watch.elapsed_s() * 1e6);
    sink += snap.positions.size();
    pairs += static_cast<double>(sc.fleet().encounters(t, range).size());
  }
  if (sink == 0) throw std::logic_error{"probe_mobility: empty fleet"};
  m["mobility.snapshot_us"] = {median(snapshot_us), "us"};
  m["mobility.pairs_per_tick"] = {pairs / kInstants, "count"};
}

/// ml::train_sgd on one vehicle's data with the workload's model and train
/// config (FLOPs from MlService::estimate_train_flops), and MlService::test
/// over the server test set.
void probe_ml(const scenario::Scenario& sc, Metrics& m) {
  const auto sim = sc.make_simulator();
  const core::MlService& ml = sim->ml();
  const ml::DatasetView& data = sc.vehicle_data().front();
  const ml::TrainConfig& train = sc.config().train;
  util::Rng init_rng{sc.config().seed};
  const ml::Weights start = ml.fresh_weights(init_rng);
  const double train_s = median_call_s(
      [&] {
        ml::Network net = ml.prototype();
        net.set_weights(start);
        util::Rng rng{sc.config().seed};
        (void)ml::train_sgd(net, data, train, rng);
      },
      3, 0.3);
  const double flops =
      static_cast<double>(ml.estimate_train_flops(data.size(), train.epochs));
  m["ml.train.gflops"] = {flops / train_s / 1e9, "GFLOP/s"};

  const double eval_s = median_call_s([&] { (void)ml.test(start); }, 3, 0.3);
  m["ml.eval.samples_per_s"] = {
      static_cast<double>(ml.test_set().size()) / eval_s, "1/s"};
}

/// The paper CNN's two convolutions (Conv 3->6 and 6->16, 5x5) at their
/// input shapes, forward plus backward at batch 16. FLOPs follow the
/// trainer's convention: 3x the forward multiply-accumulates.
void probe_conv(Metrics& m) {
  constexpr std::size_t kBatch = 16;
  struct Shape {
    std::size_t cin, cout, side;
  };
  util::Rng rng{7};
  std::vector<ml::Conv2D> convs;
  std::vector<ml::Tensor> inputs;
  for (const Shape& s : {Shape{3, 6, 32}, Shape{6, 16, 14}}) {
    convs.emplace_back(s.cin, s.cout, 5);
    convs.back().init_params(rng);
    std::vector<float> x(kBatch * s.cin * s.side * s.side);
    for (float& v : x) v = static_cast<float>(rng.normal());
    inputs.emplace_back(std::vector<std::size_t>{kBatch, s.cin, s.side, s.side},
                        std::move(x));
  }
  double flops = 0.0;
  const double secs = median_call_s(
      [&] {
        flops = 0.0;
        for (std::size_t i = 0; i < convs.size(); ++i) {
          const ml::Tensor y = convs[i].forward(inputs[i]);
          (void)convs[i].backward(ml::Tensor::full(y.shape(), 0.01F));
          flops += 3.0 * static_cast<double>(convs[i].flops_per_sample()) *
                   static_cast<double>(kBatch);
        }
      },
      5, 0.3);
  m["ml.conv.gflops"] = {flops / secs / 1e9, "GFLOP/s"};
}

void probe_scenario_layers(const scenario::Scenario& sc, Metrics& m) {
  probe_setup(sc.config(), m);
  probe_mobility(sc, m);
  probe_ml(sc, m);
  probe_conv(m);
}

// ----- workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::string params_json() const = 0;
  /// How many input sets the seed draws.
  [[nodiscard]] virtual std::size_t input_sets() const { return 1; }
  /// Builds input set `set`: the Scenario or the campaign spec (setup_s).
  virtual void setup(std::size_t set) = 0;
  [[nodiscard]] virtual std::string inputs_digest() const = 0;
  /// One whole execution of the workload.
  virtual Sample run_once() = 0;
  /// Direct timed calls into the layers (traced runs only).
  virtual void probe_layers(Metrics& m) = 0;
  /// The span that roots one event loop, and how many loops run at once.
  [[nodiscard]] virtual const char* loop_root() const { return "sim.run"; }
  [[nodiscard]] virtual std::size_t loops() const { return 1; }
};

/// Workloads on one Scenario built from a ScenarioConfig.
class ScenarioWorkload : public Workload {
 public:
  explicit ScenarioWorkload(scenario::ScenarioConfig cfg)
      : cfg_{std::move(cfg)} {}

  void setup(std::size_t /*set*/) override {
    scenario_ = std::make_unique<scenario::Scenario>(cfg_);
  }

  /// Digest of the generated inputs: the first test samples, every
  /// vehicle's data indices, and the fleet's positions at 16 instants.
  [[nodiscard]] std::string inputs_digest() const override {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    const ml::DatasetView& test = scenario_->test_set();
    for (std::size_t i = 0; i < std::min<std::size_t>(test.size(), 8); ++i) {
      h = fnv1a(h, test.sample(i),
                test.base().sample_size() * sizeof(float));
    }
    for (const auto& view : scenario_->vehicle_data()) {
      h = fnv1a(h, view.indices().data(),
                view.indices().size() * sizeof(std::uint32_t));
    }
    const auto& fleet = scenario_->fleet();
    for (int k = 0; k < 16; ++k) {
      const auto snap = fleet.snapshot(cfg_.horizon_s * k / 16.0);
      for (const auto& p : snap.positions) h = fnv1a(h, &p, sizeof p);
    }
    return hex(h);
  }

  void probe_layers(Metrics& m) override {
    probe_scenario_layers(*scenario_, m);
  }

 protected:
  /// Runs `strategy` on the scenario and records it as one op.
  scenario::RunResult run_op(
      Sample& s, const std::string& name, const std::string& kind,
      std::shared_ptr<strategy::LearningStrategy> strat) {
    const util::Stopwatch watch;
    scenario::RunResult r = scenario_->run(std::move(strat));
    OpOutput op;
    op.name = name;
    op.kind = kind;
    op.wall_s = watch.elapsed_s();
    const auto& v2c = r.channel(comm::ChannelKind::kV2C);
    const auto& v2x = r.channel(comm::ChannelKind::kV2X);
    op.values = {
        {"sim_end_time_s", r.report.sim_end_time_s},
        {"events_executed", static_cast<double>(r.report.events_executed)},
        {"final_accuracy", r.final_accuracy},
        {"v2c_bytes_delivered", static_cast<double>(v2c.bytes_delivered)},
        {"v2x_bytes_delivered", static_cast<double>(v2x.bytes_delivered)},
        {"v2x_transfers_delivered",
         static_cast<double>(v2x.transfers_delivered)},
    };
    s.ops.push_back(std::move(op));
    s.sim_s += r.report.sim_end_time_s;
    s.events += static_cast<double>(r.report.events_executed);
    s.vehicle_ticks += vehicle_ticks(cfg_.vehicles, r.report.sim_end_time_s,
                                     cfg_.mobility_tick_s);
    add_channels(s, r);
    return r;
  }

  scenario::ScenarioConfig cfg_;
  std::unique_ptr<scenario::Scenario> scenario_;
};

// fig4_cnn: the paper's experiment (§5.2) — BASE, then OPP, on the paper
// CNN with one class per vehicle over synthetic images.
struct Fig4Params {
  std::size_t vehicles = 60;
  int rounds = 3;
  std::size_t reporters = 5;
  double base_round_s = 30.0;
  double opp_round_s = 200.0;
  std::size_t samples_per_vehicle = 32;
  std::size_t test_size = 500;
};

scenario::ScenarioConfig fig4_config(const Fig4Params& p, std::uint64_t seed) {
  // The fig4_opp_vs_base bench's paper configuration.
  scenario::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = p.vehicles;
  cfg.dataset = "images";
  cfg.partition = "class_skew";
  cfg.samples_per_vehicle = p.samples_per_vehicle;
  cfg.classes_per_vehicle = 1;
  cfg.train_pool_size = class_skew_pool(cfg.vehicles, cfg.samples_per_vehicle,
                                        cfg.classes_per_vehicle,
                                        cfg.image_config.num_classes);
  cfg.test_size = p.test_size;
  cfg.image_config.noise_sigma = 0.85;
  cfg.image_config.gain_jitter = 0.45;
  cfg.model = "paper_cnn";
  // Trainings run inline, one after another: with one std::async thread per
  // training, up to 10 trainings shared 4 cores, and the wall time followed
  // the host's scheduler and the seed-dependent overlap of trainings. The
  // outputs are the same either way.
  cfg.async_training = false;
  cfg.train.epochs = 2;
  cfg.train.batch_size = 16;
  cfg.train.learning_rate = 0.005F;
  cfg.train.momentum = 0.9F;
  cfg.city.city_size_m = 3400.0;
  cfg.city.block_size_m = 200.0;
  cfg.city.speed_mean_mps = 10.0;
  cfg.city.dwell_mean_s = 250.0;
  cfg.city.initial_on_probability = 0.75;
  cfg.city.dwell_on_probability = 0.15;
  cfg.net.v2c.bandwidth_bytes_per_s = 16e3;
  cfg.net.v2c.setup_latency_s = 0.5;
  cfg.net.v2c.loss_probability = 0.01;
  cfg.net.v2x.range_m = 200.0;
  cfg.horizon_s = 30000.0;
  cfg.city.duration_s = 30000.0;
  return cfg;
}

class Fig4Workload final : public ScenarioWorkload {
 public:
  Fig4Workload(Fig4Params p, std::uint64_t seed)
      : ScenarioWorkload{fig4_config(p, seed)}, p_{p}, seed_{seed} {}

  [[nodiscard]] std::size_t input_sets() const override { return kInputSets; }

  // Like the paper's experiment, which replays one recorded fleet, the city
  // fleet is a fixed input, and reporters are picked round-robin: then the
  // number of OPP exchanges, and with it the amount of training, is the
  // same for every seed. The input set's seed (input_set_seed) draws the
  // images, their partition, the model initialisation and the link losses.
  void setup(std::size_t set) override {
    cfg_.seed = input_set_seed(seed_, set);
    mobility::CityModelConfig city = cfg_.city;
    city.seed = kFleetSeed;
    cfg_.external_fleet = std::make_shared<mobility::FleetModel>(
        mobility::make_city_fleet(cfg_.vehicles, city));
    ScenarioWorkload::setup(set);
  }

  [[nodiscard]] std::string params_json() const override {
    return JsonObject{}
        .num("vehicles", static_cast<double>(p_.vehicles))
        .num("rounds", p_.rounds)
        .num("reporters", static_cast<double>(p_.reporters))
        .num("base_round_s", p_.base_round_s)
        .num("opp_round_s", p_.opp_round_s)
        .num("samples_per_vehicle",
             static_cast<double>(cfg_.samples_per_vehicle))
        .num("classes_per_vehicle",
             static_cast<double>(cfg_.classes_per_vehicle))
        .num("train_pool", static_cast<double>(cfg_.train_pool_size))
        .num("test_size", static_cast<double>(cfg_.test_size))
        .str("model", cfg_.model)
        .num("horizon_s", cfg_.horizon_s)
        .str("selection", "round_robin")
        .num("fleet_seed", kFleetSeed)
        .num("input_sets", static_cast<double>(kInputSets))
        .dump();
  }

  Sample run_once() override {
    Sample s;
    const util::Stopwatch watch;
    strategy::RoundConfig base;
    base.rounds = p_.rounds;
    base.participants = p_.reporters;
    base.round_duration_s = p_.base_round_s;
    base.collect_timeout_s = 20.0;
    base.selection = strategy::SelectionPolicy::kRoundRobin;
    const auto base_r =
        run_op(s, "BASE", "rounds",
               std::make_shared<strategy::FederatedStrategy>(base));
    add_round_values(s.ops.back(), base_r, false);

    strategy::OpportunisticConfig opp;
    opp.round = base;
    opp.round.round_duration_s = p_.opp_round_s;
    const auto opp_r =
        run_op(s, "OPP", "rounds",
               std::make_shared<strategy::OpportunisticStrategy>(opp));
    add_round_values(s.ops.back(), opp_r, true);
    s.wall_s = watch.elapsed_s();
    return s;
  }

 private:
  void add_round_values(OpOutput& op, const scenario::RunResult& r,
                        bool opportunistic) const {
    op.values.emplace_back("rounds_completed",
                           r.metrics.counter("rounds_completed"));
    op.values.emplace_back("rounds_configured", p_.rounds);
    if (!opportunistic) return;
    const auto& bars = r.metrics.series("v2x_exchanges_per_round");
    double lo = bars.empty() ? 0.0 : bars.front().value;
    double hi = lo;
    for (const auto& b : bars) {
      lo = std::min(lo, b.value);
      hi = std::max(hi, b.value);
    }
    op.values.emplace_back("v2x_exchanges_min", lo);
    op.values.emplace_back("v2x_exchanges_max", hi);
  }

  static constexpr std::uint64_t kFleetSeed = 42;
  Fig4Params p_;
  std::uint64_t seed_;
};

// city_gossip: decentralized gossip learning over a city fleet, logreg on
// class-skewed blobs.
struct GossipParams {
  std::size_t vehicles = 500;
  double duration_s = 2000.0;
  double retrain_interval_s = 60.0;
};

scenario::ScenarioConfig gossip_config(const GossipParams& p,
                                       std::uint64_t seed) {
  scenario::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = p.vehicles;
  cfg.dataset = "blobs";
  cfg.blob_config.num_classes = 10;
  cfg.blob_config.dimensions = 24;
  cfg.blob_config.center_radius = 2.5;
  cfg.partition = "class_skew";
  cfg.samples_per_vehicle = 40;
  cfg.classes_per_vehicle = 2;
  cfg.train_pool_size = class_skew_pool(cfg.vehicles, cfg.samples_per_vehicle,
                                        cfg.classes_per_vehicle,
                                        cfg.blob_config.num_classes);
  cfg.test_size = 1000;
  cfg.model = "logreg";
  cfg.train.learning_rate = 0.05F;
  cfg.city.city_size_m = 4000.0;
  cfg.city.dwell_mean_s = 400.0;
  cfg.city.duration_s = p.duration_s;
  cfg.horizon_s = p.duration_s;
  return cfg;
}

class GossipWorkload final : public ScenarioWorkload {
 public:
  GossipWorkload(GossipParams p, std::uint64_t seed)
      : ScenarioWorkload{gossip_config(p, seed)}, p_{p} {}

  [[nodiscard]] std::string params_json() const override {
    return JsonObject{}
        .num("vehicles", static_cast<double>(p_.vehicles))
        .num("duration_s", p_.duration_s)
        .num("retrain_interval_s", p_.retrain_interval_s)
        .num("samples_per_vehicle",
             static_cast<double>(cfg_.samples_per_vehicle))
        .num("classes_per_vehicle",
             static_cast<double>(cfg_.classes_per_vehicle))
        .num("train_pool", static_cast<double>(cfg_.train_pool_size))
        .num("test_size", static_cast<double>(cfg_.test_size))
        .str("model", cfg_.model)
        .dump();
  }

  Sample run_once() override {
    Sample s;
    const util::Stopwatch watch;
    strategy::GossipConfig g;
    g.duration_s = p_.duration_s;
    g.retrain_interval_s = p_.retrain_interval_s;
    g.eval_interval_s = p_.duration_s / 10.0;
    g.probe_vehicles = 5;
    const auto r = run_op(s, "gossip", "gossip",
                          std::make_shared<strategy::GossipStrategy>(g));
    OpOutput& op = s.ops.back();
    op.values.emplace_back("probe_accuracy",
                           r.metrics.last_value("accuracy", 0.0));
    op.values.emplace_back("gossip_merges",
                           r.metrics.counter("gossip_total_merges"));
    op.values.emplace_back("trainings_completed",
                           r.metrics.counter("trainings_completed"));
    s.wall_s = watch.elapsed_s();
    return s;
  }

 private:
  GossipParams p_;
};

// sweep_ckpt: a campaign of MLP-on-blobs jobs — 5 strategies x 2 fleet
// sizes x 4 seeds — on nproc workers, with a durable store and autosaves.
struct SweepParams {
  std::vector<std::string> vehicles = {"40", "80"};
  std::size_t seeds = 4;
  int rounds = 6;
  double horizon_s = 3000.0;
  double checkpoint_every_s = 500.0;
};

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(SweepParams p, std::uint64_t seed, fs::path work_dir)
      : p_{std::move(p)}, seed_{seed}, work_dir_{std::move(work_dir)},
        workers_{nproc()} {}

  [[nodiscard]] std::string params_json() const override {
    std::string fleets;
    for (const auto& v : p_.vehicles) fleets += (fleets.empty() ? "" : ",") + v;
    return JsonObject{}
        .str("strategies",
             "federated,opportunistic,rsu_assisted,federated_clustering,"
             "centralized")
        .str("vehicles", fleets)
        .num("seeds", static_cast<double>(p_.seeds))
        .num("jobs", static_cast<double>(jobs_.size()))
        .num("rounds", p_.rounds)
        .num("horizon_s", p_.horizon_s)
        .num("checkpoint_every_s", p_.checkpoint_every_s)
        .num("workers", static_cast<double>(workers_))
        .str("model", "mlp")
        .num("input_sets", static_cast<double>(kInputSets))
        .dump();
  }

  [[nodiscard]] std::size_t input_sets() const override { return kInputSets; }

  void setup(std::size_t set) override {
    campaign::CampaignSpec spec;
    spec.name = "perfbench_sweep";
    spec.base_seed = input_set_seed(seed_, set);
    spec.seeds_per_point = p_.seeds;
    util::IniFile& b = spec.base;
    const std::string horizon = util::CsvWriter::field(p_.horizon_s);
    b.set("scenario", "horizon_s", horizon);
    b.set("scenario", "rsus", "4");
    b.set("city", "duration_s", horizon);
    b.set("city", "size_m", "2500");
    b.set("city", "dwell_s", "250");
    b.set("city", "initial_on", "0.75");
    b.set("city", "dwell_on", "0.15");
    b.set("data", "dataset", "blobs");
    b.set("data", "blob_classes", "10");
    b.set("data", "blob_dimensions", "24");
    b.set("data", "blob_radius", "2.2");
    b.set("data", "partition", "class_skew");
    b.set("data", "samples_per_vehicle", "60");
    b.set("data", "classes_per_vehicle", "2");
    std::size_t max_vehicles = 0;
    for (const auto& v : p_.vehicles) {
      max_vehicles = std::max<std::size_t>(max_vehicles, std::stoul(v));
    }
    b.set("data", "train_pool",
          std::to_string(class_skew_pool(max_vehicles, 60, 2, 10)));
    b.set("data", "test_size", "1000");
    b.set("train", "model", "mlp");
    b.set("train", "epochs", "2");
    b.set("train", "lr", "0.02");
    b.set("strategy", "rounds", std::to_string(p_.rounds));
    b.set("strategy", "participants", "5");
    b.set("strategy", "collect_timeout_s", "20");
    b.set("strategy", "duration_s", util::CsvWriter::field(p_.horizon_s * 0.4));
    b.set("strategy", "train_interval_s", "300");
    spec.grid.push_back({"scenario", "vehicles", p_.vehicles});
    spec.zipped.push_back({"strategy", "name",
                           {"federated", "opportunistic", "rsu_assisted",
                            "federated_clustering", "centralized"}});
    spec.zipped.push_back(
        {"strategy", "round_duration_s", {"30", "200", "60", "30", "30"}});
    jobs_ = campaign::expand(spec);
    spec_ = std::move(spec);
  }

  [[nodiscard]] std::string inputs_digest() const override {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto& job : jobs_) {
      h = fnv1a(h, job.hash.data(), job.hash.size());
    }
    return hex(h);
  }

  Sample run_once() override {
    const fs::path store = work_dir_ / "store";
    fs::remove_all(store);
    campaign::EngineOptions opts;
    opts.workers = workers_;
    opts.store_dir = store.string();
    opts.checkpoint_every_s = p_.checkpoint_every_s;
    Sample s;
    const util::Stopwatch watch;
    campaign::CampaignResult result = campaign::run_campaign(spec_, opts);
    s.wall_s = watch.elapsed_s();
    if (result.records.size() != jobs_.size() ||
        result.executed != jobs_.size()) {
      throw std::runtime_error{"sweep: campaign did not run every job"};
    }
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      const campaign::JobRecord& rec = result.records[i];
      const std::size_t vehicles = static_cast<std::size_t>(
          jobs_[i].experiment.get_int("scenario", "vehicles", 0));
      OpOutput op;
      op.name = rec.point_label + " #" + std::to_string(rec.seed_index);
      op.kind = rec.strategy_name == "centralized" ? "centralized" : "rounds";
      op.wall_s = rec.wall_seconds;
      for (const char* key :
           {"sim_end_time_s", "events_executed", "v2c_bytes_delivered",
            "v2x_bytes_delivered", "v2x_transfers_delivered",
            "trainings_completed"}) {
        op.values.emplace_back(key, rec.metric(key));
      }
      // Federated clustering learns k-means centroids, not a classifier:
      // its quality output is cluster purity instead of accuracy.
      if (rec.strategy_name == "federated-clustering") {
        op.values.emplace_back("purity", rec.metric("purity:final"));
      } else {
        op.values.emplace_back("final_accuracy", rec.metric("final_accuracy"));
      }
      if (op.kind == "rounds") {
        op.values.emplace_back("rounds_completed",
                               rec.metric("rounds_completed"));
        op.values.emplace_back("rounds_configured", p_.rounds);
      }
      if (rec.strategy_name == "opportunistic") {
        op.values.emplace_back("v2x_exchanges_mean",
                               rec.metric("v2x_exchanges_per_round:mean"));
        op.values.emplace_back("v2x_exchanges_final",
                               rec.metric("v2x_exchanges_per_round:final"));
      }
      const double end = rec.metric("sim_end_time_s");
      s.sim_s += end;
      s.events += rec.metric("events_executed");
      s.vehicle_ticks += vehicle_ticks(vehicles, end, 1.0);
      for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
        const std::string prefix = k == 0 ? "v2c" : k == 1 ? "v2x" : "wired";
        s.channels[k].transfers_attempted += static_cast<std::uint64_t>(
            rec.metric(prefix + "_transfers_attempted"));
        s.channels[k].transfers_delivered += static_cast<std::uint64_t>(
            rec.metric(prefix + "_transfers_delivered"));
      }
      s.ops.push_back(std::move(op));
    }
    records_ = std::move(result.records);
    fs::remove_all(store);
    return s;
  }

  void probe_layers(Metrics& m) override {
    // The job that simulated longest stands in for the campaign's substrate:
    // it autosaves most.
    std::size_t longest = 0;
    for (std::size_t i = 1; i < records_.size(); ++i) {
      if (records_[i].metric("sim_end_time_s") >
          records_[longest].metric("sim_end_time_s")) {
        longest = i;
      }
    }
    const campaign::Job& job = jobs_.at(longest);
    const scenario::Scenario sc{scenario::scenario_from_ini(job.experiment)};
    probe_scenario_layers(sc, m);

    // checkpoint::save through the autosave hook, then checkpoint::restore.
    const fs::path snap = work_dir_ / "probe.rrck";
    auto sim = sc.make_simulator();
    sim->set_strategy(scenario::strategy_from_ini(job.experiment));
    sim->set_autosave(p_.checkpoint_every_s, [&](core::Simulator& s) {
      checkpoint::save(s, job.experiment, snap.string());
    });
    (void)sim->run();
    m["checkpoint.bytes_per_save"] = {
        static_cast<double>(fs::file_size(snap)), "B"};
    const double restore_s = median_call_s(
        [&] { (void)checkpoint::restore(snap.string()); }, 3, 0.2, 20);
    m["checkpoint.restore_ms"] = {restore_s * 1e3, "ms"};
    fs::remove(snap);

    const double agg_s =
        median_call_s([&] { (void)campaign::summarize(records_); }, 5, 0.2);
    m["campaign.aggregate_ms"] = {agg_s * 1e3, "ms"};
  }

  [[nodiscard]] const char* loop_root() const override {
    return "campaign.job";
  }
  [[nodiscard]] std::size_t loops() const override { return workers_; }

 private:
  SweepParams p_;
  std::uint64_t seed_;
  fs::path work_dir_;
  std::size_t workers_;
  campaign::CampaignSpec spec_;
  std::vector<campaign::Job> jobs_;
  std::vector<campaign::JobRecord> records_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke,
                                        std::uint64_t seed,
                                        const fs::path& work_dir) {
  if (name == "fig4_cnn") {
    Fig4Params p;
    if (smoke) {
      p.vehicles = 20;
      p.rounds = 1;
      p.test_size = 200;
    }
    return std::make_unique<Fig4Workload>(p, seed);
  }
  if (name == "city_gossip") {
    GossipParams p;
    if (smoke) {
      p.vehicles = 40;
      p.duration_s = 1200.0;
    }
    return std::make_unique<GossipWorkload>(p, seed);
  }
  if (name == "sweep_ckpt") {
    SweepParams p;
    if (smoke) {
      p.vehicles = {"20"};
      p.seeds = 1;
      p.rounds = 2;
      p.horizon_s = 1200.0;
      p.checkpoint_every_s = 200.0;
    }
    return std::make_unique<SweepWorkload>(p, seed, work_dir);
  }
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

// ----- metrics ---------------------------------------------------------------

/// `stat` of each input set's values, averaged over the sets; `values`
/// gathers a sample's values. With one input set this is `stat` over all
/// samples.
template <typename Values, typename Stat>
double mean_over_sets(const std::vector<Sample>& samples, Values values,
                      Stat stat) {
  std::map<std::size_t, std::vector<double>> by_set;
  for (const Sample& s : samples) values(s, by_set[s.set]);
  double sum = 0.0;
  for (auto& [set, v] : by_set) sum += stat(std::move(v));
  return by_set.empty() ? 0.0 : sum / static_cast<double>(by_set.size());
}

void end_to_end_metrics(const std::vector<double>& setup_s,
                        const std::vector<Sample>& samples, Metrics& m) {
  const auto per_sample = [&](auto f) {
    return mean_over_sets(
        samples,
        [&](const Sample& s, std::vector<double>& v) { v.push_back(f(s)); },
        median);
  };
  const auto job_s = [&](double q) {
    return mean_over_sets(
        samples,
        [](const Sample& s, std::vector<double>& v) {
          for (const OpOutput& op : s.ops) v.push_back(op.wall_s);
        },
        [q](std::vector<double> v) { return quantile(std::move(v), q); });
  };
  m["setup_s"] = {median(setup_s), "s"};
  m["wall_s"] = {per_sample([](const Sample& s) { return s.wall_s; }), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["sim_speedup"] = {
      per_sample([](const Sample& s) { return ratio(s.sim_s, s.wall_s); }),
      "x"};
  m["events_per_s"] = {
      per_sample([](const Sample& s) { return ratio(s.events, s.wall_s); }),
      "1/s"};
  m["vehicle_ticks_per_s"] = {per_sample([](const Sample& s) {
                                return ratio(s.vehicle_ticks, s.wall_s);
                              }),
                              "1/s"};
  m["jobs_per_s"] = {per_sample([](const Sample& s) {
                       return ratio(static_cast<double>(s.ops.size()),
                                    s.wall_s);
                     }),
                     "1/s"};
  m["job_s_p50"] = {job_s(0.5), "s"};
  m["job_s_p75"] = {job_s(0.75), "s"};
}

void layer_metrics(const Profile& p, const Workload& w,
                   const std::vector<Sample>& traced,
                   const std::vector<Sample>& untraced, int threads_peak,
                   Metrics& m) {
  const auto n = static_cast<double>(traced.size());
  double traced_wall = 0.0, events = 0.0;
  std::vector<double> traced_walls, untraced_walls;
  std::array<double, comm::kChannelKindCount> att{}, del{};
  for (const Sample& s : traced) {
    traced_wall += s.wall_s;
    traced_walls.push_back(s.wall_s);
    events += s.events;
    for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
      att[k] += static_cast<double>(s.channels[k].transfers_attempted);
      del[k] += static_cast<double>(s.channels[k].transfers_delivered);
    }
  }
  for (const Sample& s : untraced) untraced_walls.push_back(s.wall_s);
  const auto per = [n](double v) { return v / n; };
  const auto& train = p.get("ml.train_sgd");
  const auto& tick = p.get("sim.mobility_tick");
  const auto& scan = p.get("sim.encounter_scan");
  const auto& eval = p.get("ml.evaluate");
  const auto& fed_avg = p.get("ml.fed_avg");
  const auto& robust = p.get("ml.robust_aggregate");
  const auto& job = p.get("campaign.job");
  const auto& save = p.get("checkpoint.save");

  m["core.events"] = {per(events), "count"};
  m["core.loop_self_s"] = {per(p.get("sim.run", true).self_s), "s"};
  m["core.train_wait_s"] = {
      per(p.get("sim.finish_training", true).self_s), "s"};

  m["sched.trainings"] = {per(static_cast<double>(train.count)), "count"};
  m["sched.threads_peak"] = {static_cast<double>(threads_peak), "count"};
  m["sched.train_concurrency"] = {ratio(train.total_s, traced_wall), "ratio"};

  m["mobility.ticks"] = {per(static_cast<double>(tick.count)), "count"};
  m["mobility.tick_us_p50"] = {quantile(tick.dur_s, 0.5) * 1e6, "us"};
  m["mobility.tick_us_p99"] = {quantile(tick.dur_s, 0.99) * 1e6, "us"};
  m["mobility.scan_us_p50"] = {quantile(scan.dur_s, 0.5) * 1e6, "us"};
  m["mobility.busy_s"] = {per(tick.total_s), "s"};

  constexpr auto kV2C = static_cast<std::size_t>(comm::ChannelKind::kV2C);
  constexpr auto kV2X = static_cast<std::size_t>(comm::ChannelKind::kV2X);
  m["comm.v2x.attempted"] = {per(att[kV2X]), "count"};
  m["comm.v2x.delivered"] = {per(del[kV2X]), "count"};
  m["comm.v2c.attempted"] = {per(att[kV2C]), "count"};
  m["comm.v2c.delivered"] = {per(del[kV2C]), "count"};
  m["comm.delivery_ratio"] = {
      ratio(del[kV2X] + del[kV2C], att[kV2X] + att[kV2C]), "ratio"};
  m["comm.deliver_self_s"] = {per(p.get("sim.deliver", true).self_s), "s"};

  m["ml.train.calls"] = {per(static_cast<double>(train.count)), "count"};
  m["ml.train.busy_s"] = {per(train.total_s), "s"};
  m["ml.train.ms_p50"] = {quantile(train.dur_s, 0.5) * 1e3, "ms"};
  m["ml.train.ms_p99"] = {quantile(train.dur_s, 0.99) * 1e3, "ms"};
  m["ml.eval.calls"] = {per(static_cast<double>(eval.count)), "count"};
  m["ml.eval.busy_s"] = {per(eval.total_s), "s"};
  m["ml.aggregate.calls"] = {
      per(static_cast<double>(fed_avg.count + robust.count)), "count"};
  m["ml.aggregate.busy_s"] = {per(fed_avg.total_s + robust.total_s), "s"};

  m["strategy.finalize_round.busy_s"] = {
      per(p.get("strategy.finalize_round").total_s), "s"};
  m["strategy.begin_round.busy_s"] = {
      per(p.get("strategy.begin_round").total_s), "s"};

  m["campaign.job.busy_s"] = {per(job.total_s), "s"};
  m["campaign.utilization"] = {
      w.loops() > 1
          ? ratio(job.total_s, traced_wall * static_cast<double>(w.loops()))
          : 0.0,
      "ratio"};
  m["campaign.store_save.ms_p50"] = {
      quantile(p.get("campaign.store_save").dur_s, 0.5) * 1e3, "ms"};

  m["checkpoint.saves"] = {per(static_cast<double>(save.count)), "count"};
  m["checkpoint.save.ms_p50"] = {quantile(save.dur_s, 0.5) * 1e3, "ms"};
  m["checkpoint.busy_s"] = {per(p.get("checkpoint.autosave").total_s), "s"};

  // Probed only where the workload uses the layer; bypassed layers read 0.
  m.try_emplace("checkpoint.bytes_per_save", Metric{0.0, "B"});
  m.try_emplace("checkpoint.restore_ms", Metric{0.0, "ms"});
  m.try_emplace("campaign.aggregate_ms", Metric{0.0, "ms"});

  m["trace.overhead_ratio"] = {
      ratio(median(traced_walls), median(untraced_walls)), "ratio"};
  // Self time of the named layers on the event-loop threads, against the
  // wall time those threads had (the campaign's wall time per worker).
  double attributed = 0.0;
  for (const auto& [span, layer] : layer_of_span()) {
    attributed += p.get(span, true).self_s;
  }
  m["trace.attributed_ratio"] = {
      ratio(attributed, traced_wall * static_cast<double>(w.loops())), "ratio"};

  for (const char* layer : {"core", "mobility", "comm", "ml", "strategy",
                            "checkpoint", "campaign"}) {
    double self = 0.0;
    for (const auto& [span, owner] : layer_of_span()) {
      if (owner == layer) self += p.get(span, true).self_s;
    }
    m[std::string{"layer."} + layer + ".loop_self_s"] = {per(self), "s"};
  }
}

std::string sample_json(const Sample& s) {
  std::vector<std::string> ops;
  for (const OpOutput& op : s.ops) {
    JsonObject values;
    for (const auto& [k, v] : op.values) values.num(k, v);
    ops.push_back(JsonObject{}
                      .str("name", op.name)
                      .str("kind", op.kind)
                      .num("wall_s", op.wall_s)
                      .raw("values", values.dump())
                      .dump());
  }
  return JsonObject{}
      .raw("traced", s.traced ? "true" : "false")
      .num("set", static_cast<double>(s.set))
      .num("wall_s", s.wall_s)
      .raw("ops", json_array(ops))
      .dump();
}

int run(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const std::string name = args.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string size = args.get("size", "full");
  if (size != "full" && size != "smoke") {
    throw std::invalid_argument{"--size must be full or smoke"};
  }
  const fs::path work_dir =
      fs::path{args.get("work-dir", ".bench_build/work")} /
      (name + "-" + std::to_string(seed) + "-" + std::to_string(::getpid()));
  fs::create_directories(work_dir);
  util::Log::set_level(util::LogLevel::kWarn);

  auto workload = make_workload(name, size == "smoke", seed, work_dir);
  const std::size_t sets = workload->input_sets();
  // setup_s is the median over batches of set-ups, each batch at least
  // 20 ms long (batching evens out sub-millisecond set-ups), as time per
  // set-up. Every batch starts from a trimmed heap, as a fresh process
  // would: otherwise the free lists the samples leave behind shift the
  // timing. With several input sets, every sample whose set is not the
  // one loaded sets its set up in one batch. With one, at least three
  // batches run first; cheap set-ups also repeat after every sample, for
  // up to 5% of its wall time, so their median spans the whole run rather
  // than one moment of the host's load, and the samples run on the latest
  // set-up (identical inputs every time).
  std::vector<double> setup_s;
  const util::Stopwatch first_watch;
  workload->setup(0);
  const double first_s = first_watch.elapsed_s();
  const std::string inputs_digest = workload->inputs_digest();
  const auto batch =
      static_cast<int>(std::ceil(0.02 / std::max(first_s, 1e-6)));
  const double batch_s = first_s * batch;
  if (batch == 1) setup_s.push_back(first_s);
  const auto setup_batch = [&](std::size_t set) {
    malloc_trim(0);
    const util::Stopwatch watch;
    for (int i = 0; i < batch; ++i) workload->setup(set);
    setup_s.push_back(watch.elapsed_s() / batch);
  };
  const auto setup_for = [&](double budget_s, std::size_t min_batches) {
    const util::Stopwatch budget;
    for (std::size_t n = 0;
         n < min_batches || budget.elapsed_s() + batch_s <= budget_s; ++n) {
      setup_batch(0);
    }
  };
  if (sets == 1) {
    setup_for(0.5, setup_s.empty() ? 3 : 2);
  } else if (setup_s.empty()) {
    setup_batch(0);
  }

  std::vector<Sample> untraced, traced;
  Profile profile;
  int threads_peak = 0;
  std::size_t loaded = 0;
  const util::Stopwatch measured;
  do {
    const std::size_t set = untraced.size() % sets;
    if (set != loaded) {
      setup_batch(set);
      loaded = set;
    }
    untraced.push_back(workload->run_once());
    untraced.back().set = set;
    if (sets == 1) setup_for(0.05 * untraced.back().wall_s, 0);
    if (trace) {
      auto& sink = telemetry::Telemetry::instance();
      sink.clear();
      Sample s;
      {
        const ThreadSampler sampler;
        telemetry::set_enabled(true);
        s = workload->run_once();
        telemetry::set_enabled(false);
        threads_peak = std::max(threads_peak, sampler.peak());
      }
      s.traced = true;
      s.set = set;
      accumulate(profile, sink.snapshot(), workload->loop_root());
      sink.clear();
      traced.push_back(std::move(s));
    }
  } while (measured.elapsed_s() < seconds);

  Metrics metrics;
  end_to_end_metrics(setup_s, untraced, metrics);
  if (trace) {
    workload->probe_layers(metrics);
    layer_metrics(profile, *workload, traced, untraced, threads_peak, metrics);
  }
  fs::remove_all(work_dir);

  std::vector<std::string> samples;
  for (const Sample& s : untraced) samples.push_back(sample_json(s));
  for (const Sample& s : traced) samples.push_back(sample_json(s));
  std::vector<std::string> setups_json;
  for (double s : setup_s) setups_json.push_back(number(s));
  JsonObject metrics_json;
  for (const auto& [key, metric] : metrics) {
    metrics_json.raw(key, JsonObject{}
                              .num("value", metric.value)
                              .str("unit", metric.unit)
                              .dump());
  }
  std::printf("%s\n", JsonObject{}
                          .str("workload", name)
                          .raw("seed", std::to_string(seed))
                          .str("size", size)
                          .num("trace", trace ? 1 : 0)
                          .raw("params", workload->params_json())
                          .str("inputs_digest", inputs_digest)
                          .raw("setup_s", json_array(setups_json))
                          .raw("samples", json_array(samples))
                          .raw("metrics", metrics_json.dump())
                          .dump()
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rr_perfbench: error: %s\n", e.what());
    return 1;
  }
}
