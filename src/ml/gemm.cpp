// The GEMM core (see gemm.hpp for the reduction-order contract).
//
// Two loop forms, picked from the operand shapes:
//  * register tiles: a kMr x kNr block of C lives in registers across a
//    K-block while the k loop streams one row of a B panel and broadcasts
//    one A value per tile row. B is read in place when its rows are
//    contiguous and the panel is full, and packed (zero-padded) otherwise;
//  * k-outer: C is updated in place, k by k (the AVX2 kernel loads each C
//    vector once per four ascending k), so B needs no packing. It wins where
//    tiles run half-empty or cannot amortize loading C: fewer than 2 * kMr
//    output rows (the paper CNN's 6-channel conv1: forward 6x784 and weight
//    gradient 6x75 over K = 784, with C in L1) and short K (the conv input
//    gradients and the Linear weight gradients, K = batch size or Cout).
//
// Both forms exist as portable scalar code and as AVX2 code compiled for
// avx2 *without* fma; this file is built with -ffp-contract=off so the
// compiler cannot fuse a multiply into an add either. K-blocking only
// stores and reloads the running sums, which keeps every output's
// ascending-k order intact.
#include "ml/gemm.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RR_GEMM_X86 1
#include <immintrin.h>
#endif

namespace roadrunner::ml::gemm {
namespace {

constexpr std::size_t kMr = 4;    // tile rows (A values broadcast per k)
static_assert(kMr == 4, "tile<> dispatches 1..3 rows plus a full tile");
constexpr std::size_t kNr = 16;   // tile columns (two 8-float vectors)
constexpr std::size_t kKc = 256;  // K-block: a packed panel is 16 KB

constexpr std::size_t kShortK = 32;  // below this K, k-outer beats tiles

struct ScalarKernels {
  template <std::size_t R>
  static void tile_rows(std::size_t kc, const float* a, std::size_t a_rs,
                        std::size_t a_cs, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc, bool load_c) {
    // Half a tile (8 columns) at a time keeps the R x 8 running sums in
    // the 16 registers of baseline x86-64; copying the B row into a local
    // lets the compiler vectorize across j. Each output still adds its
    // products in ascending k.
    constexpr std::size_t kHalf = kNr / 2;
    for (std::size_t h = 0; h < kNr; h += kHalf) {
      float acc[R * kHalf];
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t j = 0; j < kHalf; ++j) {
          acc[r * kHalf + j] = load_c ? c[r * ldc + h + j] : 0.0F;
        }
      }
      const float* ak = a;
      const float* bk = b + h;
      for (std::size_t kk = 0; kk < kc; ++kk, ak += a_cs, bk += ldb) {
        float bv[kHalf];
        std::memcpy(bv, bk, sizeof bv);
        for (std::size_t r = 0; r < R; ++r) {
          const float av = ak[r * a_rs];
          for (std::size_t j = 0; j < kHalf; ++j) {
            acc[r * kHalf + j] += av * bv[j];
          }
        }
      }
      for (std::size_t r = 0; r < R; ++r) {
        std::memcpy(c + r * ldc + h, acc + r * kHalf, sizeof(float) * kHalf);
      }
    }
  }

  static void k_outer(std::size_t m, std::size_t n, std::size_t k,
                      const Operand& a, const float* b, std::size_t ldb,
                      float* c, std::size_t ldc) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * ldb;
      for (std::size_t i = 0; i < m; ++i) {
        const float av = a.data[i * a.row_stride + kk * a.col_stride];
        float* crow = c + i * ldc;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
};

#ifdef RR_GEMM_X86
#define RR_AVX2 __attribute__((target("avx2")))

struct Avx2Kernels {
  template <std::size_t R>
  RR_AVX2 static void tile_rows(std::size_t kc, const float* a,
                                std::size_t a_rs, std::size_t a_cs,
                                const float* b, std::size_t ldb, float* c,
                                std::size_t ldc, bool load_c) {
    __m256 lo[R], hi[R];
    for (std::size_t r = 0; r < R; ++r) {
      lo[r] = load_c ? _mm256_loadu_ps(c + r * ldc) : _mm256_setzero_ps();
      hi[r] = load_c ? _mm256_loadu_ps(c + r * ldc + 8) : _mm256_setzero_ps();
    }
    for (std::size_t kk = 0; kk < kc; ++kk, a += a_cs, b += ldb) {
      const __m256 b_lo = _mm256_loadu_ps(b);
      const __m256 b_hi = _mm256_loadu_ps(b + 8);
      for (std::size_t r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + r * a_rs);
        lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b_lo));
        hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b_hi));
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + r * ldc, lo[r]);
      _mm256_storeu_ps(c + r * ldc + 8, hi[r]);
    }
  }

  /// C += A[:, kk .. kk+U) * B[kk .. kk+U, :], loading each C vector once
  /// and adding its U products in ascending k. The n % 8 tail columns go
  /// through masked loads and stores.
  template <std::size_t U>
  RR_AVX2 static void rank_update(std::size_t m, std::size_t n,
                                  const Operand& a, std::size_t kk,
                                  const float* b, std::size_t ldb, float* c,
                                  std::size_t ldc, __m256i tail) {
    const float* bk = b + kk * ldb;
    for (std::size_t i = 0; i < m; ++i) {
      const float* ai = a.data + i * a.row_stride + kk * a.col_stride;
      __m256 av[U];
      for (std::size_t u = 0; u < U; ++u) {
        av[u] = _mm256_broadcast_ss(ai + u * a.col_stride);
      }
      float* crow = c + i * ldc;
      std::size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256 acc = _mm256_loadu_ps(crow + j);
        for (std::size_t u = 0; u < U; ++u) {
          const __m256 bv = _mm256_loadu_ps(bk + u * ldb + j);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(av[u], bv));
        }
        _mm256_storeu_ps(crow + j, acc);
      }
      if (j < n) {
        __m256 acc = _mm256_maskload_ps(crow + j, tail);
        for (std::size_t u = 0; u < U; ++u) {
          const __m256 bv = _mm256_maskload_ps(bk + u * ldb + j, tail);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(av[u], bv));
        }
        _mm256_maskstore_ps(crow + j, tail, acc);
      }
    }
  }

  RR_AVX2 static void k_outer(std::size_t m, std::size_t n, std::size_t k,
                              const Operand& a, const float* b,
                              std::size_t ldb, float* c, std::size_t ldc) {
    const __m256i tail =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n % 8)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    std::size_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      rank_update<4>(m, n, a, kk, b, ldb, c, ldc, tail);
    }
    for (; kk < k; ++kk) rank_update<1>(m, n, a, kk, b, ldb, c, ldc, tail);
  }
};
#undef RR_AVX2
#endif

/// Copies B[pc .. pc+kc, jc .. jc+nr] into a kc x kNr row-major panel,
/// zero-padding columns nr .. kNr.
void pack_panel(const Operand& b, std::size_t pc, std::size_t kc,
                std::size_t jc, std::size_t nr, float* panel) {
  std::fill_n(panel, kc * kNr, 0.0F);
  for (std::size_t j = 0; j < nr; ++j) {
    const float* src = b.data + pc * b.row_stride + (jc + j) * b.col_stride;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      panel[kk * kNr + j] = src[kk * b.row_stride];
    }
  }
}

/// One kMr-row tile, or fewer rows at the bottom edge of C.
template <class Kernels>
void tile(std::size_t rows, std::size_t kc, const float* a, std::size_t a_rs,
          std::size_t a_cs, const float* b, std::size_t ldb, float* c,
          std::size_t ldc, bool load_c) {
  switch (rows) {
    case 1:
      return Kernels::template tile_rows<1>(kc, a, a_rs, a_cs, b, ldb, c, ldc,
                                            load_c);
    case 2:
      return Kernels::template tile_rows<2>(kc, a, a_rs, a_cs, b, ldb, c, ldc,
                                            load_c);
    case 3:
      return Kernels::template tile_rows<3>(kc, a, a_rs, a_cs, b, ldb, c, ldc,
                                            load_c);
    default:
      return Kernels::template tile_rows<kMr>(kc, a, a_rs, a_cs, b, ldb, c,
                                              ldc, load_c);
  }
}

template <class Kernels>
void run(std::size_t m, std::size_t n, std::size_t k, const Operand& a,
         const Operand& b, float* c, std::size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  const bool k_outer = b.col_stride == 1 && (m < 2 * kMr || k < kShortK);
  if (!accumulate && (k == 0 || k_outer)) {
    for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0F);
  }
  if (k == 0) return;
  if (k_outer) {
    Kernels::k_outer(m, n, k, a, b.data, b.row_stride, c, ldc);
    return;
  }

  alignas(32) float panel[kKc * kNr];
  alignas(32) float edge[kMr * kNr] = {};
  for (std::size_t jc = 0; jc < n; jc += kNr) {
    const std::size_t nr = std::min(kNr, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const float* bp = panel;
      std::size_t ldb = kNr;
      if (b.col_stride == 1 && nr == kNr) {
        bp = b.data + pc * b.row_stride + jc;
        ldb = b.row_stride;
      } else {
        pack_panel(b, pc, kc, jc, nr, panel);
      }
      // The first K-block starts from zero unless accumulating; later
      // blocks continue the running sums stored in C.
      const bool load_c = accumulate || pc > 0;
      for (std::size_t ic = 0; ic < m; ic += kMr) {
        const std::size_t mr = std::min(kMr, m - ic);
        const float* ap = a.data + ic * a.row_stride + pc * a.col_stride;
        float* cp = c + ic * ldc + jc;
        if (nr == kNr) {
          tile<Kernels>(mr, kc, ap, a.row_stride, a.col_stride, bp, ldb, cp,
                        ldc, load_c);
          continue;
        }
        for (std::size_t r = 0; load_c && r < mr; ++r) {
          std::memcpy(edge + r * kNr, cp + r * ldc, nr * sizeof(float));
        }
        tile<Kernels>(mr, kc, ap, a.row_stride, a.col_stride, bp, ldb, edge,
                      kNr, load_c);
        for (std::size_t r = 0; r < mr; ++r) {
          std::memcpy(cp + r * ldc, edge + r * kNr, nr * sizeof(float));
        }
      }
    }
  }
}

}  // namespace

bool supported(Isa isa) {
  if (isa == Isa::kScalar) return true;
#ifdef RR_GEMM_X86
  static const bool avx2 = [] {
    __builtin_cpu_init();  // safe even before static constructors ran
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

Isa best_isa() {
  static const Isa best = supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
  return best;
}

void gemm(std::size_t m, std::size_t n, std::size_t k, Operand a, Operand b,
          float* c, std::size_t ldc, bool accumulate, Isa isa) {
#ifdef RR_GEMM_X86
  if (isa == Isa::kAvx2 && supported(Isa::kAvx2)) {
    run<Avx2Kernels>(m, n, k, a, b, c, ldc, accumulate);
    return;
  }
#endif
  static_cast<void>(isa);
  run<ScalarKernels>(m, n, k, a, b, c, ldc, accumulate);
}

}  // namespace roadrunner::ml::gemm
