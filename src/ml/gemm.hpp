// The GEMM core under matmul/matmul_at/matmul_bt and the Conv2D/Linear
// layers (internal to the ML substrate; tests reach it to run every
// instruction-set path on one host).
//
// Reduction-order contract (DESIGN.md §10.4): every output element starts at
// +0 (or at its current value when accumulating) and adds its k products
// a*b in ascending k, rounding after each multiply and each add — no fused
// multiply-add, no split or reassociated sums, no flush-to-zero. Every path
// therefore writes the same bytes as the naive triple loop, and the kernel
// is picked from the operand shapes and the CPU alone, never from a setting.
#pragma once

#include <cstddef>

namespace roadrunner::ml::gemm {

/// Instruction-set paths of the core; all compute identical bytes.
enum class Isa { kScalar, kAvx2 };

/// True when this build and this CPU can run `isa`.
[[nodiscard]] bool supported(Isa isa);

/// The fastest supported path, detected once per process.
[[nodiscard]] Isa best_isa();

/// A strided matrix operand: element (r, c) is data[r * row_stride +
/// c * col_stride]. A transposed view just swaps the strides.
struct Operand {
  const float* data;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// C[m, n] = A[m, k] * B[k, n], or C += A * B when `accumulate`. C is
/// row-major with leading dimension `ldc` and must not alias A or B.
void gemm(std::size_t m, std::size_t n, std::size_t k, Operand a, Operand b,
          float* c, std::size_t ldc, bool accumulate, Isa isa = best_isa());

}  // namespace roadrunner::ml::gemm
