#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::ml {

namespace {

void he_init(Tensor& w, std::size_t fan_in, util::Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& v : w.values()) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
}

void require_rank(const std::vector<std::size_t>& shape, std::size_t rank,
                  const char* layer) {
  if (shape.size() != rank) {
    throw std::invalid_argument{std::string{layer} + ": expected rank-" +
                                std::to_string(rank) + " input, got rank-" +
                                std::to_string(shape.size())};
  }
}

/// Elements of one sample of a batch of this shape.
std::size_t sample_volume(const std::vector<std::size_t>& shape) {
  std::size_t v = 1;
  for (std::size_t i = 1; i < shape.size(); ++i) v *= shape[i];
  return v;
}

/// A thread's buffers for the per-sample bodies and for the gradient that
/// one layer of a Trunk hands the layer below it within one sample.
struct ThreadBuffers {
  SampleScratch scratch;
  std::vector<float> grads[2];
};

thread_local ThreadBuffers t_buffers;

/// Runs body(t_buffers, s) for every sample s in [0, n): over the global
/// pool when `shard` and n >= 2, else in order on the caller. A call from a
/// pool worker, or one that is not alone in the pool, runs on its caller
/// (util::ThreadPool::parallel_for).
template <class Body>
void for_each_sample(std::size_t n, bool shard, const Body& body) {
  if (shard && n >= 2) {
    util::ThreadPool::global().parallel_for(
        n, [&](std::size_t s) { body(t_buffers, s); });
    return;
  }
  ThreadBuffers& buf = t_buffers;
  for (std::size_t s = 0; s < n; ++s) body(buf, s);
}

bool any_worth_sharding(std::span<SampleLayer* const> layers) {
  return std::any_of(layers.begin(), layers.end(), [](const SampleLayer* l) {
    return l->worth_sharding();
  });
}

}  // namespace

// ----------------------------------------------------------------- Trunk --

Tensor Trunk::forward(std::span<SampleLayer* const> layers, const Tensor& x) {
  if (x.rank() == 0) throw std::invalid_argument{"Trunk: rank-0 input"};
  out_shape_.clear();  // no matching forward until this one succeeds
  acts_.resize(layers.size());
  std::vector<std::size_t> shape = x.shape();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    // Every element is overwritten, so a buffer of the right shape is kept.
    if (acts_[i].shape() != shape) acts_[i] = Tensor{shape};
    shape = layers[i]->prepare(shape);
  }
  Tensor y{shape};
  const std::size_t n = x.dim(0);
  for_each_sample(
      n, any_worth_sharding(layers), [&](ThreadBuffers& buf, std::size_t s) {
        const std::size_t in = sample_volume(x.shape());
        std::memcpy(acts_[0].data() + s * in, x.data() + s * in,
                    in * sizeof(float));
        for (std::size_t i = 0; i < layers.size(); ++i) {
          Tensor& dst = i + 1 < layers.size() ? acts_[i + 1] : y;
          const std::size_t x_vol = sample_volume(acts_[i].shape());
          const std::size_t y_vol = sample_volume(dst.shape());
          layers[i]->forward_sample(acts_[i].data() + s * x_vol,
                                    dst.data() + s * y_vol, buf.scratch);
        }
      });
  out_shape_ = shape;
  return y;
}

Tensor Trunk::backward(std::span<SampleLayer* const> layers,
                       const Tensor& grad_out, bool input_grad) {
  if (out_shape_.empty() || acts_.size() != layers.size()) {
    throw std::logic_error{"Trunk::backward: no matching forward"};
  }
  if (grad_out.shape() != out_shape_) {
    throw std::invalid_argument{"Trunk::backward: grad shape mismatch"};
  }
  const std::size_t n = out_shape_[0];
  const std::size_t out_vol = sample_volume(out_shape_);
  std::size_t widest = 0;  // the largest gradient handed between layers
  for (std::size_t i = 1; i < layers.size(); ++i) {
    widest = std::max(widest, sample_volume(acts_[i].shape()));
  }
  Tensor dx = input_grad ? Tensor{acts_[0].shape()} : Tensor{};
  for (SampleLayer* l : layers) l->begin_backward(n);
  for_each_sample(
      n, any_worth_sharding(layers), [&](ThreadBuffers& buf, std::size_t s) {
        for (std::vector<float>& g : buf.grads) {
          if (g.size() < widest) g.resize(widest);
        }
        const float* go = grad_out.data() + s * out_vol;
        for (std::size_t i = layers.size(); i-- > 0;) {
          const std::size_t x_vol = sample_volume(acts_[i].shape());
          float* gx = i > 0        ? buf.grads[i % 2].data()
                      : input_grad ? dx.data() + s * x_vol
                                   : nullptr;
          layers[i]->backward_sample(s, acts_[i].data() + s * x_vol, go, gx,
                                     buf.scratch);
          go = gx;
        }
      });
  for (SampleLayer* l : layers) l->end_backward(n);
  return dx;
}

Tensor SampleLayer::forward(const Tensor& x) {
  SampleLayer* self = this;
  return trunk_.forward({&self, 1}, x);
}

Tensor SampleLayer::backward(const Tensor& grad_out) {
  SampleLayer* self = this;
  return trunk_.backward({&self, 1}, grad_out, /*input_grad=*/true);
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_{in_features},
      out_{out_features},
      w_{{out_features, in_features}},
      b_{{out_features}},
      dw_{{out_features, in_features}},
      db_{{out_features}} {
  if (in_ == 0 || out_ == 0) {
    throw std::invalid_argument{"Linear: zero-sized dimension"};
  }
}

void Linear::init_params(util::Rng& rng) {
  he_init(w_, in_, rng);
  b_.fill(0.0F);
}

Tensor Linear::forward(const Tensor& x) {
  require_rank(x.shape(), 2, "Linear");
  if (x.dim(1) != in_) {
    throw std::invalid_argument{"Linear: input feature mismatch"};
  }
  cached_x_ = x;
  Tensor y = matmul_bt(x, w_);  // [N, out]
  const std::size_t n = y.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = y.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += b_[j];
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  require_rank(grad_out.shape(), 2, "Linear::backward");
  const std::size_t n = grad_out.dim(0);
  if (grad_out.dim(1) != out_ || cached_x_.empty() || cached_x_.dim(0) != n) {
    throw std::logic_error{"Linear::backward: no matching forward"};
  }
  // dW[out, in] += grad_out^T[out, N] * x[N, in]
  dw_.add_(matmul_at(grad_out, cached_x_));
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_out.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) db_[j] += row[j];
  }
  // dX[N, in] = grad_out[N, out] * W[out, in]
  return matmul(grad_out, w_);
}

std::uint64_t Linear::flops_per_sample() const {
  return static_cast<std::uint64_t>(in_) * out_;
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(in_, out_);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

// ---------------------------------------------------------------- Conv2D --

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding)
    : cin_{in_channels},
      cout_{out_channels},
      k_{kernel},
      stride_{stride},
      padding_{padding},
      w_{{out_channels, in_channels, kernel, kernel}},
      b_{{out_channels}},
      dw_{{out_channels, in_channels, kernel, kernel}},
      db_{{out_channels}} {
  if (cin_ == 0 || cout_ == 0 || k_ == 0 || stride_ == 0) {
    throw std::invalid_argument{"Conv2D: zero-sized dimension"};
  }
  if (padding_ >= k_) {
    throw std::invalid_argument{"Conv2D: padding must be < kernel"};
  }
}

void Conv2D::init_params(util::Rng& rng) {
  he_init(w_, cin_ * k_ * k_, rng);
  b_.fill(0.0F);
}

namespace {

struct ConvGeometry {
  std::size_t h, w, k, stride, pad, oh, ow;
};

ConvGeometry conv_geometry(std::size_t h, std::size_t w, std::size_t k,
                           std::size_t stride, std::size_t pad) {
  if (h + 2 * pad < k || w + 2 * pad < k) {
    throw std::invalid_argument{"Conv2D: input smaller than kernel"};
  }
  return ConvGeometry{h,      w,
                      k,      stride,
                      pad,    (h + 2 * pad - k) / stride + 1,
                      (w + 2 * pad - k) / stride + 1};
}

/// The input value kernel tap (ki, kj) of output (oi, oj) reads from one
/// channel plane, honouring stride; 0 inside the zero padding.
float tap(const float* plane, const ConvGeometry& g, std::size_t oi,
          std::size_t oj, std::size_t ki, std::size_t kj) {
  const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
                            static_cast<std::ptrdiff_t>(g.pad);
  const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                            static_cast<std::ptrdiff_t>(g.pad);
  const bool inside = ii >= 0 && jj >= 0 &&
                      ii < static_cast<std::ptrdiff_t>(g.h) &&
                      jj < static_cast<std::ptrdiff_t>(g.w);
  return inside ? plane[static_cast<std::size_t>(ii) * g.w +
                        static_cast<std::size_t>(jj)]
                : 0.0F;
}

/// Expands one sample [Cin, H, W] into columns [Cin*K*K, OH*OW]. The fast
/// contiguous-copy path is kept for the common stride-1/no-padding
/// configuration (the paper's CNN).
void im2col(const float* x, std::size_t cin, const ConvGeometry& g,
            float* cols) {
  const std::size_t out_hw = g.oh * g.ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < cin; ++c) {
    const float* plane = x + c * g.h * g.w;
    for (std::size_t ki = 0; ki < g.k; ++ki) {
      for (std::size_t kj = 0; kj < g.k; ++kj, ++row) {
        float* dst = cols + row * out_hw;
        for (std::size_t oi = 0; oi < g.oh; ++oi) {
          if (g.stride == 1 && g.pad == 0) {
            const float* src = plane + (oi + ki) * g.w + kj;
            std::memcpy(dst + oi * g.ow, src, g.ow * sizeof(float));
            continue;
          }
          for (std::size_t oj = 0; oj < g.ow; ++oj) {
            dst[oi * g.ow + oj] = tap(plane, g, oi, oj, ki, kj);
          }
        }
      }
    }
  }
}

/// Expands one sample [Cin, H, W] into rows [OH*OW, Cin*K*K]: the im2col
/// matrix already transposed, so the weight gradient reads it as a
/// row-major GEMM operand.
void im2row(const float* x, std::size_t cin, const ConvGeometry& g,
            float* rows) {
  for (std::size_t oi = 0; oi < g.oh; ++oi) {
    for (std::size_t oj = 0; oj < g.ow; ++oj) {
      float* dst = rows + (oi * g.ow + oj) * cin * g.k * g.k;
      for (std::size_t c = 0; c < cin; ++c) {
        const float* plane = x + c * g.h * g.w;
        for (std::size_t ki = 0; ki < g.k; ++ki, dst += g.k) {
          if (g.stride == 1 && g.pad == 0) {
            const float* src = plane + (oi + ki) * g.w + oj;
            for (std::size_t kj = 0; kj < g.k; ++kj) dst[kj] = src[kj];
            continue;
          }
          for (std::size_t kj = 0; kj < g.k; ++kj) {
            dst[kj] = tap(plane, g, oi, oj, ki, kj);
          }
        }
      }
    }
  }
}

/// Scatter-adds columns [Cin*K*K, OH*OW] back into a gradient image
/// [Cin, H, W] (the transpose of im2col; padding cells are discarded).
void col2im_add(const float* cols, std::size_t cin, const ConvGeometry& g,
                float* dx) {
  const std::size_t out_hw = g.oh * g.ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < cin; ++c) {
    float* plane = dx + c * g.h * g.w;
    for (std::size_t ki = 0; ki < g.k; ++ki) {
      for (std::size_t kj = 0; kj < g.k; ++kj, ++row) {
        const float* src = cols + row * out_hw;
        if (g.stride == 1 && g.pad == 0) {
          // Same visiting order as the general path, without bounds checks.
          for (std::size_t oi = 0; oi < g.oh; ++oi) {
            float* dst = plane + (oi + ki) * g.w + kj;
            const float* s_row = src + oi * g.ow;
            for (std::size_t oj = 0; oj < g.ow; ++oj) dst[oj] += s_row[oj];
          }
          continue;
        }
        for (std::size_t oi = 0; oi < g.oh; ++oi) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(g.h)) continue;
          for (std::size_t oj = 0; oj < g.ow; ++oj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(g.w)) continue;
            plane[static_cast<std::size_t>(ii) * g.w +
                  static_cast<std::size_t>(jj)] += src[oi * g.ow + oj];
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<std::size_t> Conv2D::prepare(
    const std::vector<std::size_t>& x_shape) {
  require_rank(x_shape, 4, "Conv2D");
  if (x_shape[1] != cin_) {
    throw std::invalid_argument{"Conv2D: channel mismatch"};
  }
  const ConvGeometry g =
      conv_geometry(x_shape[2], x_shape[3], k_, stride_, padding_);
  last_h_ = x_shape[2];
  last_w_ = x_shape[3];
  return {x_shape[0], cout_, g.oh, g.ow};
}

void Conv2D::forward_sample(const float* x, float* y,
                            SampleScratch& scratch) const {
  const ConvGeometry g = conv_geometry(last_h_, last_w_, k_, stride_, padding_);
  const std::size_t out_hw = g.oh * g.ow;
  const std::size_t ckk = cin_ * k_ * k_;
  scratch.cols.resize(ckk * out_hw);
  im2col(x, cin_, g, scratch.cols.data());
  // y [Cout, OHW] = W [Cout, CKK] * cols [CKK, OHW], then the bias.
  gemm::gemm(cout_, out_hw, ckk, {w_.data(), ckk, 1},
             {scratch.cols.data(), out_hw, 1}, y, out_hw,
             /*accumulate=*/false);
  for (std::size_t c = 0; c < cout_; ++c) {
    const float bias = b_[c];
    for (std::size_t p = 0; p < out_hw; ++p) y[c * out_hw + p] += bias;
  }
}

void Conv2D::begin_backward(std::size_t n) {
  dw_parts_.resize(n * cout_ * cin_ * k_ * k_);
  db_parts_.resize(n * cout_);
}

void Conv2D::backward_sample(std::size_t s, const float* x,
                             const float* grad_out, float* dx,
                             SampleScratch& scratch) {
  const ConvGeometry g = conv_geometry(last_h_, last_w_, k_, stride_, padding_);
  const std::size_t out_hw = g.oh * g.ow;
  const std::size_t ckk = cin_ * k_ * k_;
  // Bias gradient: sum over spatial positions.
  for (std::size_t c = 0; c < cout_; ++c) {
    float acc = 0.0F;
    for (std::size_t p = 0; p < out_hw; ++p) acc += grad_out[c * out_hw + p];
    db_parts_[s * cout_ + c] = acc;
  }
  // Weight gradient: dW_s [Cout, CKK] = grad_out_s [Cout, OHW] *
  // rows [OHW, CKK].
  scratch.rows.resize(out_hw * ckk);
  im2row(x, cin_, g, scratch.rows.data());
  gemm::gemm(cout_, ckk, out_hw, {grad_out, out_hw, 1},
             {scratch.rows.data(), ckk, 1}, dw_parts_.data() + s * cout_ * ckk,
             ckk, /*accumulate=*/false);
  if (dx == nullptr) return;
  // Input gradient: dcols [CKK, OHW] = W^T [CKK, Cout] * grad_out_s.
  scratch.dcols.resize(ckk * out_hw);
  gemm::gemm(ckk, out_hw, cout_, {w_.data(), 1, ckk}, {grad_out, out_hw, 1},
             scratch.dcols.data(), out_hw, /*accumulate=*/false);
  std::fill(dx, dx + cin_ * g.h * g.w, 0.0F);
  col2im_add(scratch.dcols.data(), cin_, g, dx);
}

void Conv2D::end_backward(std::size_t n) {
  // Reduce in sample order: db_ takes each sample's sum in turn; per-sample
  // weight gradients are summed from zero, then added to dw_ once per call.
  const std::size_t ckk = cin_ * k_ * k_;
  std::vector<float> dw_batch(cout_ * ckk, 0.0F);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < cout_; ++c) db_[c] += db_parts_[s * cout_ + c];
    const float* part = dw_parts_.data() + s * cout_ * ckk;
    for (std::size_t i = 0; i < dw_batch.size(); ++i) dw_batch[i] += part[i];
  }
  float* dw = dw_.data();
  for (std::size_t i = 0; i < dw_batch.size(); ++i) dw[i] += dw_batch[i];
}

std::uint64_t Conv2D::flops_per_sample() const {
  // Uses the most recent input spatial dims (0 before any forward).
  if (last_h_ + 2 * padding_ < k_ || last_w_ + 2 * padding_ < k_ ||
      last_h_ == 0) {
    return 0;
  }
  const std::uint64_t oh = (last_h_ + 2 * padding_ - k_) / stride_ + 1;
  const std::uint64_t ow = (last_w_ + 2 * padding_ - k_) / stride_ + 1;
  return static_cast<std::uint64_t>(cout_) * cin_ * k_ * k_ * oh * ow;
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(cin_, cout_, k_, stride_, padding_);
  copy->w_ = w_;
  copy->b_ = b_;
  copy->last_h_ = last_h_;
  copy->last_w_ = last_w_;
  return copy;
}

// ------------------------------------------------------------- MaxPool2D --

std::vector<std::size_t> MaxPool2D::prepare(
    const std::vector<std::size_t>& x_shape) {
  require_rank(x_shape, 4, "MaxPool2D");
  if (x_shape[2] / 2 == 0 || x_shape[3] / 2 == 0) {
    throw std::invalid_argument{"MaxPool2D: input too small"};
  }
  c_ = x_shape[1];
  h_ = x_shape[2];
  w_ = x_shape[3];
  return {x_shape[0], c_, h_ / 2, w_ / 2};
}

void MaxPool2D::forward_sample(const float* x, float* y,
                               SampleScratch& /*scratch*/) const {
  for (std::size_t ch = 0; ch < c_; ++ch) {
    const float* plane = x + ch * h_ * w_;
    for (std::size_t oi = 0; oi < h_ / 2; ++oi) {
      const float* r0 = plane + 2 * oi * w_;
      const float* r1 = r0 + w_;
      for (std::size_t oj = 0; oj < w_ / 2; ++oj) {
        // std::max(a, b) keeps a unless b > a: the first maximum wins ties,
        // a NaN candidate never wins, and a NaN first cell stays. It
        // compiles to maxss, where a ?: select became a branch per cell.
        *y++ = std::max(
            std::max(std::max(r0[2 * oj], r0[2 * oj + 1]), r1[2 * oj]),
            r1[2 * oj + 1]);
      }
    }
  }
}

void MaxPool2D::backward_sample(std::size_t /*s*/, const float* x,
                                const float* grad_out, float* dx,
                                SampleScratch& /*scratch*/) {
  if (dx == nullptr) return;
  std::fill(dx, dx + c_ * h_ * w_, 0.0F);
  for (std::size_t ch = 0; ch < c_; ++ch) {
    const float* plane = x + ch * h_ * w_;
    float* dplane = dx + ch * h_ * w_;
    for (std::size_t oi = 0; oi < h_ / 2; ++oi) {
      for (std::size_t oj = 0; oj < w_ / 2; ++oj) {
        // The forward's window maximum, found again by the same rule; the
        // index follows an all-ones mask where a candidate is greater.
        const std::size_t first = 2 * oi * w_ + 2 * oj;
        std::size_t best = first;
        float best_v = plane[first];
        for (std::size_t cand : {first + 1, first + w_, first + w_ + 1}) {
          const std::size_t take =
              std::size_t{0} - static_cast<std::size_t>(plane[cand] > best_v);
          best = (best & ~take) | (cand & take);
          best_v = std::max(best_v, plane[cand]);
        }
        dplane[best] += *grad_out++;
      }
    }
  }
}

std::uint64_t MaxPool2D::flops_per_sample() const {
  return c_ * (h_ / 2) * (w_ / 2) * 3;  // three comparisons per output
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>();
}

// ------------------------------------------------------------------ ReLU --

std::vector<std::size_t> ReLU::prepare(
    const std::vector<std::size_t>& x_shape) {
  volume_ = sample_volume(x_shape);
  return x_shape;
}

void ReLU::forward_sample(const float* x, float* y,
                          SampleScratch& /*scratch*/) const {
  for (std::size_t i = 0; i < volume_; ++i) y[i] = x[i] > 0.0F ? x[i] : 0.0F;
}

void ReLU::backward_sample(std::size_t /*s*/, const float* x,
                           const float* grad_out, float* dx,
                           SampleScratch& /*scratch*/) {
  if (dx == nullptr) return;
  // A select, not a branch: the sign of x is data-dependent, and a
  // mispredicted branch per element cost more than the whole mask. The
  // gradient is loaded unconditionally; a load under the condition
  // compiled to a branch.
  for (std::size_t i = 0; i < volume_; ++i) {
    const float g = grad_out[i];
    dx[i] = x[i] <= 0.0F ? 0.0F : g;
  }
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>();
}

// --------------------------------------------------------------- Dropout --

Dropout::Dropout(float p) : p_{p} {
  if (p < 0.0F || p >= 1.0F) {
    throw std::invalid_argument{"Dropout: p outside [0, 1)"};
  }
}

void Dropout::init_params(util::Rng& rng) { rng_ = rng.fork("dropout"); }

Tensor Dropout::forward(const Tensor& x) {
  last_batch_ = x.rank() > 0 ? x.dim(0) : 0;
  if (!training_ || p_ == 0.0F) {
    mask_ = Tensor{};
    return x;
  }
  mask_ = Tensor{x.shape()};
  Tensor y = x;
  const float scale = 1.0F / (1.0F - p_);
  float* pm = mask_.data();
  float* py = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) {
    const bool keep = !rng_.bernoulli(p_);
    pm[i] = keep ? scale : 0.0F;
    py[i] *= pm[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;  // was an identity forward
  if (!grad_out.same_shape(mask_)) {
    throw std::logic_error{"Dropout::backward: no matching forward"};
  }
  Tensor dx = grad_out;
  const float* pm = mask_.data();
  float* pd = dx.data();
  for (std::size_t i = 0; i < dx.size(); ++i) pd[i] *= pm[i];
  return dx;
}

std::uint64_t Dropout::flops_per_sample() const {
  if (mask_.empty() || last_batch_ == 0) return 0;
  return mask_.size() / last_batch_;
}

std::unique_ptr<Layer> Dropout::clone() const {
  auto copy = std::make_unique<Dropout>(p_);
  copy->training_ = training_;
  copy->rng_ = rng_;
  return copy;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  if (x.rank() < 2) throw std::invalid_argument{"Flatten: rank < 2"};
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0);
  return x.reshaped({n, x.size() / n});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (in_shape_.empty() || grad_out.size() != shape_volume(in_shape_)) {
    throw std::logic_error{"Flatten::backward: no matching forward"};
  }
  return grad_out.reshaped(in_shape_);
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>();
}

}  // namespace roadrunner::ml
