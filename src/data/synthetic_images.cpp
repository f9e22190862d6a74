#include "data/synthetic_images.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace roadrunner::data {

namespace {

constexpr double kTau = 2.0 * std::numbers::pi;

/// Pattern intensity in roughly [-1, 1] for class `label` at pixel (i, j),
/// with per-sample nuisance parameters phase (radians) and frequency scale.
double pattern_value(std::int32_t label, double i, double j, double side,
                     double phase, double freq) {
  const double u = i / side, v = j / side;  // [0, 1) coordinates
  const double cu = u - 0.5, cv = v - 0.5;  // centred
  switch (label) {
    case 0:  // horizontal stripes
      return std::sin(kTau * freq * u + phase);
    case 1:  // vertical stripes
      return std::sin(kTau * freq * v + phase);
    case 2:  // diagonal stripes
      return std::sin(kTau * freq * (u + v) * 0.7071 + phase);
    case 3:  // anti-diagonal stripes
      return std::sin(kTau * freq * (u - v) * 0.7071 + phase);
    case 4:  // checkerboard
      return std::sin(kTau * freq * u + phase) *
             std::sin(kTau * freq * v + phase);
    case 5: {  // concentric rings
      const double r = std::sqrt(cu * cu + cv * cv);
      return std::sin(kTau * freq * 1.5 * r + phase);
    }
    case 6: {  // central Gaussian blob (bright centre, dark rim)
      const double r2 = cu * cu + cv * cv;
      return 2.0 * std::exp(-r2 / 0.05) - 1.0;
    }
    case 7:  // smooth corner-to-corner gradient, direction set by phase
      return 2.0 * (u * std::cos(phase) + v * std::sin(phase)) - 1.0;
    case 8: {  // four bumps at quadrant centres
      double acc = -1.0;
      for (double qi : {0.25, 0.75}) {
        for (double qj : {0.25, 0.75}) {
          const double du = u - qi, dv = v - qj;
          acc += 1.2 * std::exp(-(du * du + dv * dv) / 0.02);
        }
      }
      return std::clamp(acc, -1.0, 1.0);
    }
    case 9: {  // bright plus-sign cross through the centre
      const double bar = 0.08;
      const bool on = std::abs(cu) < bar || std::abs(cv) < bar;
      return on ? 1.0 : -1.0;
    }
    default:
      throw std::invalid_argument{"pattern_value: label out of range"};
  }
}

/// One sample's per-image draws: everything but its pixel noise.
struct ImageDraw {
  std::int32_t label = 0;
  double phase = 0.0;
  double freq = 0.0;
  int shift_i = 0;
  int shift_j = 0;
  std::vector<double> gains;  ///< one per channel
};

/// Draws the nuisance parameters of one sample of class `label` from `rng`.
ImageDraw draw_image(std::int32_t label, const SyntheticImageConfig& config,
                     util::Rng& rng) {
  ImageDraw d;
  d.label = label;
  d.phase = rng.uniform(0.0, kTau);
  d.freq = rng.uniform(2.5, 4.5);
  d.shift_i = static_cast<int>(
      rng.uniform_int(-config.max_shift, config.max_shift));
  d.shift_j = static_cast<int>(
      rng.uniform_int(-config.max_shift, config.max_shift));
  d.gains.resize(config.channels);
  for (double& g : d.gains) {
    g = 1.0 + config.gain_jitter * rng.normal();
  }
  return d;
}

/// Pixel-noise draws one sample consumes: a normal() per pixel and channel,
/// two next() draws each.
std::uint64_t noise_draws(const SyntheticImageConfig& config) {
  return 2 * config.channels * config.side * config.side;
}

/// Paints sample `d` into `out` ([C, S, S], row-major), drawing its pixel
/// noise from `noise`: exactly noise_draws(config) next() draws.
void paint_image(const ImageDraw& d, const SyntheticImageConfig& config,
                 util::Rng& noise, float* out) {
  const std::size_t s = config.side, c = config.channels;
  const auto side_d = static_cast<double>(s);
  const auto si = static_cast<int>(s);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      // Toroidal shift keeps statistics stationary across the image.
      const auto pi_shift = static_cast<double>(
          (static_cast<int>(i) + d.shift_i % si + si) % si);
      const auto pj_shift = static_cast<double>(
          (static_cast<int>(j) + d.shift_j % si + si) % si);
      const double base =
          pattern_value(d.label, pi_shift, pj_shift, side_d, d.phase, d.freq);
      for (std::size_t ch = 0; ch < c; ++ch) {
        const double value =
            d.gains[ch] * base + config.noise_sigma * noise.normal();
        out[(ch * s + i) * s + j] = static_cast<float>(value);
      }
    }
  }
}

}  // namespace

ml::Tensor render_synthetic_image(std::int32_t label,
                                  const SyntheticImageConfig& config,
                                  util::Rng& rng) {
  if (label < 0 ||
      static_cast<std::size_t>(label) >= config.num_classes) {
    throw std::invalid_argument{"render_synthetic_image: bad label"};
  }
  const std::size_t s = config.side, c = config.channels;
  ml::Tensor img{{c, s, s}};
  const ImageDraw d = draw_image(label, config, rng);
  paint_image(d, config, rng, img.data());
  return img;
}

ml::Dataset make_synthetic_images(std::size_t count,
                                  const SyntheticImageConfig& config) {
  if (config.num_classes == 0 || config.num_classes > 10) {
    throw std::invalid_argument{
        "make_synthetic_images: num_classes must be in [1, 10]"};
  }
  // One stream, in sample order: label, nuisance draws, pixel noise. The
  // noise of a sample is a fixed number of draws, so a serial pass can draw
  // every label and nuisance parameter, note where each sample's noise
  // starts and skip past it; the pixels are then painted in parallel, and
  // the worker count cannot change a byte (DESIGN.md §10.4).
  util::Rng rng{config.seed};
  std::vector<ImageDraw> draws(count);
  std::vector<util::Rng> noise(count);
  std::vector<std::int32_t> labels(count);
  for (std::size_t n = 0; n < count; ++n) {
    labels[n] = static_cast<std::int32_t>(rng.next_below(config.num_classes));
    draws[n] = draw_image(labels[n], config, rng);
    noise[n] = rng;
    rng.discard(noise_draws(config));
  }

  const std::size_t s = config.side, c = config.channels;
  const std::size_t sample_size = c * s * s;
  ml::Tensor x{{count, c, s, s}};
  util::ThreadPool::global().parallel_for(count, [&](std::size_t n) {
    // A local copy: neighbouring streams share cache lines across threads.
    util::Rng rng = noise[n];
    paint_image(draws[n], config, rng, x.data() + n * sample_size);
  });
  return ml::Dataset{std::move(x), std::move(labels), config.num_classes};
}

}  // namespace roadrunner::data
