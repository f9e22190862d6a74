// Procedural 10-class image generator: the CIFAR-10 stand-in.
//
// The paper's experiment uses CIFAR-10 only as "a representative of an
// automotive image recognition problem" (§5.2) — a supervised 10-class image
// task that a small CNN learns gradually. Since the real dataset is not
// available offline, we synthesize one with the same tensor geometry
// (32x32x3 by default) and the same *learning-dynamics* properties:
//  * classes are parametric textures (oriented stripes, checkers, rings,
//    blobs, gradients) that overlap under noise, so accuracy climbs smoothly
//    with the amount of aggregated training data instead of saturating
//    instantly;
//  * per-sample nuisance variation (random phase, spatial shift, per-channel
//    gain, additive Gaussian noise) makes memorization of 80 local samples
//    insufficient — exactly the regime where federated aggregation helps.
// See DESIGN.md §1 (substitution table).
#pragma once

#include <cstdint>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace roadrunner::data {

struct SyntheticImageConfig {
  std::size_t side = 32;           ///< square image side in pixels
  std::size_t channels = 3;
  std::size_t num_classes = 10;    ///< up to 10 pattern families
  double noise_sigma = 0.5;        ///< additive Gaussian pixel noise
  double gain_jitter = 0.35;       ///< per-sample per-channel gain spread
  int max_shift = 5;               ///< uniform spatial shift in pixels
  std::uint64_t seed = 42;
};

/// Generates `count` samples with uniformly distributed labels.
/// Deterministic given the config (including seed): the same bytes as
/// drawing each label with next_below and rendering it with
/// render_synthetic_image on one Rng seeded with config.seed, although the
/// pixels are painted on ThreadPool::global() (DESIGN.md §10.4 item 6).
ml::Dataset make_synthetic_images(std::size_t count,
                                  const SyntheticImageConfig& config = {});

/// Renders one sample of class `label` using draws from `rng`; exposed for
/// tests and for streaming generation. Output tensor is [C, S, S].
ml::Tensor render_synthetic_image(std::int32_t label,
                                  const SyntheticImageConfig& config,
                                  util::Rng& rng);

}  // namespace roadrunner::data
