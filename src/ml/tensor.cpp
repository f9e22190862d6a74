#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "ml/gemm.hpp"

namespace roadrunner::ml {

std::size_t shape_volume(const std::vector<std::size_t>& shape) {
  if (shape.empty()) return 0;
  std::size_t volume = 1;
  for (std::size_t d : shape) volume *= d;
  return volume;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_{std::move(shape)}, data_(shape_volume(shape_), 0.0F) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_{std::move(shape)}, data_{std::move(data)} {
  if (data_.size() != shape_volume(shape_)) {
    throw std::invalid_argument{"Tensor: data size does not match shape"};
  }
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor{std::move(shape)};
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t{std::move(shape)};
  t.fill(value);
  return t;
}

std::size_t Tensor::dim(std::size_t i) const {
  if (i >= shape_.size()) throw std::out_of_range{"Tensor::dim"};
  return shape_[i];
}

float& Tensor::at(std::size_t i) {
  if (i >= data_.size()) throw std::out_of_range{"Tensor::at"};
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  if (i >= data_.size()) throw std::out_of_range{"Tensor::at"};
  return data_[i];
}

float& Tensor::at2(std::size_t i, std::size_t j) {
  return data_[i * shape_[1] + j];
}

float Tensor::at2(std::size_t i, std::size_t j) const {
  return data_[i * shape_[1] + j];
}

float& Tensor::at4(std::size_t a, std::size_t b, std::size_t c,
                   std::size_t d) {
  return data_[((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d];
}

float Tensor::at4(std::size_t a, std::size_t b, std::size_t c,
                  std::size_t d) const {
  return data_[((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d];
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const {
  if (shape_volume(shape) != data_.size()) {
    throw std::invalid_argument{"Tensor::reshaped: volume mismatch"};
  }
  return Tensor{std::move(shape), data_};
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {
void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument{std::string{"Tensor: shape mismatch in "} +
                                op + ": " + a.shape_string() + " vs " +
                                b.shape_string()};
  }
}
}  // namespace

Tensor& Tensor::add_(const Tensor& other) {
  require_same_shape(*this, other, "add_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  require_same_shape(*this, other, "sub_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float scalar) {
  require_same_shape(*this, other, "add_scaled_");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scalar * other.data_[i];
  }
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out = *this;
  out.add_(other);
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor out = *this;
  out.sub_(other);
  return out;
}

Tensor Tensor::operator*(float scalar) const {
  Tensor out = *this;
  out.mul_(scalar);
  return out;
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

float Tensor::max() const {
  if (data_.empty()) throw std::logic_error{"Tensor::max on empty tensor"};
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  if (data_.empty()) throw std::logic_error{"Tensor::min on empty tensor"};
  return *std::min_element(data_.begin(), data_.end());
}

double Tensor::norm() const {
  double acc = 0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << 'x';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

namespace {
void check_matmul_shapes(const Tensor& a, const Tensor& b, const char* op) {
  if (a.rank() != 2 || b.rank() != 2) {
    throw std::invalid_argument{std::string{op} + ": rank-2 tensors required"};
  }
}
}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate) {
  check_matmul_shapes(a, b, "matmul");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument{"matmul: inner dim mismatch"};
  if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument{"matmul: output shape mismatch"};
  }
  gemm::gemm(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, c.data(), n,
             accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matmul_shapes(a, b, "matmul");
  Tensor c{{a.dim(0), b.dim(1)}};
  matmul_into(a, b, c);
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  check_matmul_shapes(a, b, "matmul_at");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument{"matmul_at: inner dim mismatch"};
  }
  Tensor c{{m, n}};
  gemm::gemm(m, n, k, {a.data(), 1, m}, {b.data(), n, 1}, c.data(), n,
             /*accumulate=*/false);
  return c;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  check_matmul_shapes(a, b, "matmul_bt");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument{"matmul_bt: inner dim mismatch"};
  }
  Tensor c{{m, n}};
  gemm::gemm(m, n, k, {a.data(), k, 1}, {b.data(), 1, k}, c.data(), n,
             /*accumulate=*/false);
  return c;
}

}  // namespace roadrunner::ml
