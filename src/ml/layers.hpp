// Neural-network layers with hand-written backpropagation.
//
// Contract shared by all layers:
//  * forward(x) consumes a batch-first tensor and caches whatever the
//    backward pass needs;
//  * backward(grad_out) must follow a forward with a matching batch, returns
//    the gradient w.r.t. the layer input, and ACCUMULATES parameter
//    gradients (callers zero them between optimizer steps via
//    Network::zero_grad);
//  * every layer reports flops_per_sample() so the hu::HardwareUnit can
//    charge realistic simulated training time (DESIGN.md substitution 3).
//
// All layers are gradient-checked against finite differences in
// tests/ml_layers_test.cpp.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Learnable parameters and their gradient buffers, same order and shapes.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Re-randomizes parameters (no-op for parameterless layers).
  virtual void init_params(util::Rng& /*rng*/) {}

  /// Switches between training and inference behaviour (only stochastic
  /// layers such as Dropout care). Default: no-op.
  virtual void set_training(bool /*training*/) {}

  /// Forward-pass multiply-accumulate count for one sample; the trainer
  /// charges ~3x this for forward+backward.
  [[nodiscard]] virtual std::uint64_t flops_per_sample() const { return 0; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy, including current parameter values.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;
};

/// Fully connected: y = x W^T + b, with x [N, in], W [out, in], b [out].
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  void init_params(util::Rng& rng) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  [[nodiscard]] std::string name() const override { return "Linear"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_x_;
};

class SampleLayer;

/// Per-thread buffers of the per-sample bodies (im2col columns, im2row
/// rows, column gradients), reused from call to call.
struct SampleScratch {
  std::vector<float> cols, rows, dcols;
};

/// A run of sample-local layers together with the activations its last
/// forward pass keeps for the backward pass. The layers are passed to each
/// call: a Network's leading run (its trunk), or a single layer called on
/// its own. Each sample goes through the whole run on one thread, and the
/// samples of a run that holds a Conv2D are sharded over
/// util::ThreadPool::global(): one parallel_for per pass, and the only
/// place sample-local layers shard. Each sample writes its own slots only,
/// and per-sample parameter gradients are reduced in sample order after
/// the join, so sharding never changes a byte.
class Trunk {
 public:
  /// Runs a batch x [N, ...] through `layers` and returns the output.
  Tensor forward(std::span<SampleLayer* const> layers, const Tensor& x);

  /// Backpropagates the output gradient through `layers`, accumulating
  /// their parameter gradients. Returns the gradient w.r.t. the input of
  /// the last forward if `input_grad`, else an empty tensor (the first
  /// layer then skips that work).
  Tensor backward(std::span<SampleLayer* const> layers,
                  const Tensor& grad_out, bool input_grad);

 private:
  // acts_[i]: the input of layer i in the last forward; then the output
  // shape, which grad_out must match.
  std::vector<Tensor> acts_;
  std::vector<std::size_t> out_shape_;
};

/// A layer whose forward and backward treat every sample on its own:
/// Conv2D, ReLU and MaxPool2D. forward/backward run this one layer as a
/// Trunk; Network runs its leading run of them as one Trunk.
class SampleLayer : public Layer {
 public:
  Tensor forward(const Tensor& x) final;
  Tensor backward(const Tensor& grad_out) final;

  /// Checks a batch input shape [N, ...] and fixes the geometry of the
  /// per-sample calls that follow; returns the batch output shape.
  virtual std::vector<std::size_t> prepare(
      const std::vector<std::size_t>& x_shape) = 0;

  /// One sample: y = layer(x). Called concurrently for distinct samples.
  virtual void forward_sample(const float* x, float* y,
                              SampleScratch& scratch) const = 0;

  /// Sample s's backward: writes the input gradient to dx unless it is
  /// null, and its parameter gradients to the slots of sample s. Called
  /// concurrently for distinct samples, between begin_backward(n) and
  /// end_backward(n).
  virtual void backward_sample(std::size_t s, const float* x,
                               const float* grad_out, float* dx,
                               SampleScratch& scratch) = 0;

  /// Sizes the per-sample gradient slots / adds them to the parameter
  /// gradients in sample order. No-ops for parameterless layers.
  virtual void begin_backward(std::size_t /*n*/) {}
  virtual void end_backward(std::size_t /*n*/) {}

  /// True if one sample's work is worth handing to a pool worker; a run
  /// of elementwise layers alone stays on its caller.
  [[nodiscard]] virtual bool worth_sharding() const { return false; }

 private:
  Trunk trunk_;  // this layer's own activations, for standalone calls
};

/// 2-D convolution with square kernels, configurable stride and zero
/// padding. Input [N, Cin, H, W], kernel [Cout, Cin, K, K], output
/// [N, Cout, OH, OW] with OH = (H + 2*padding - K)/stride + 1 (floor).
/// Defaults (stride 1, padding 0, "valid") match the paper's LeNet-style
/// CNN. Implemented per sample on the GEMM core: forward multiplies the
/// weights by im2col columns; backward builds im2row rows (the columns
/// already transposed) for the weight gradient and scatters W^T * grad back
/// through col2im for the input gradient. Each sample's dW/db go to its
/// own partial slots, reduced in sample order by end_backward.
class Conv2D final : public SampleLayer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t padding = 0);

  std::vector<std::size_t> prepare(
      const std::vector<std::size_t>& x_shape) override;
  void forward_sample(const float* x, float* y,
                      SampleScratch& scratch) const override;
  void backward_sample(std::size_t s, const float* x, const float* grad_out,
                       float* dx, SampleScratch& scratch) override;
  void begin_backward(std::size_t n) override;
  void end_backward(std::size_t n) override;
  [[nodiscard]] bool worth_sharding() const override { return true; }

  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  void init_params(util::Rng& rng) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] std::size_t in_channels() const { return cin_; }
  [[nodiscard]] std::size_t out_channels() const { return cout_; }
  [[nodiscard]] std::size_t kernel() const { return k_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t padding() const { return padding_; }

 private:
  std::size_t cin_, cout_, k_, stride_ = 1, padding_ = 0;
  Tensor w_, b_, dw_, db_;
  // Spatial dims of the last forward, for flops and the per-sample calls.
  std::size_t last_h_ = 0, last_w_ = 0;
  // Backward's per-sample dW [N, Cout, CKK] and db [N, Cout] partials,
  // reused across calls (clone() starts empty).
  std::vector<float> dw_parts_, db_parts_;
};

/// 2x2 max pooling with stride 2 (the paper's CNN uses max pooling after
/// each convolution). Odd trailing rows/columns are dropped, matching
/// PyTorch's default floor behaviour. The first maximum of a window wins
/// ties; a NaN never beats the current maximum, and a NaN in a window's
/// first cell stays its maximum. Backward finds each window's maximum in
/// the input again, by the same rule, instead of keeping argmax indices.
class MaxPool2D final : public SampleLayer {
 public:
  MaxPool2D() = default;

  std::vector<std::size_t> prepare(
      const std::vector<std::size_t>& x_shape) override;
  void forward_sample(const float* x, float* y,
                      SampleScratch& scratch) const override;
  void backward_sample(std::size_t s, const float* x, const float* grad_out,
                       float* dx, SampleScratch& scratch) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  // Input dims [C, H, W] of the last forward.
  std::size_t c_ = 0, h_ = 0, w_ = 0;
};

class ReLU final : public SampleLayer {
 public:
  std::vector<std::size_t> prepare(
      const std::vector<std::size_t>& x_shape) override;
  void forward_sample(const float* x, float* y,
                      SampleScratch& scratch) const override;
  void backward_sample(std::size_t s, const float* x, const float* grad_out,
                       float* dx, SampleScratch& scratch) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override {
    return volume_;
  }
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t volume_ = 0;  // per-sample elements of the last forward
};

/// Inverted dropout: during training each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p), so inference (where
/// the layer is the identity) needs no rescaling. The mask randomness
/// derives from a stream seeded at init_params time, keeping whole-run
/// determinism.
class Dropout final : public Layer {
 public:
  /// p in [0, 1): drop probability.
  explicit Dropout(float p);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void init_params(util::Rng& rng) override;
  void set_training(bool training) override { training_ = training; }
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] float drop_probability() const { return p_; }
  [[nodiscard]] bool training_mode() const { return training_; }

 private:
  float p_;
  bool training_ = true;
  util::Rng rng_{0xD0D0ULL};
  Tensor mask_;
  std::size_t last_batch_ = 0;
};

/// Collapses [N, ...] to [N, volume(...)]; shape-only, no arithmetic.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace roadrunner::ml
