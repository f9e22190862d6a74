#include "ml/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ml/gemm.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t{{2, 3}};
  EXPECT_EQ(t.size(), 6U);
  EXPECT_EQ(t.rank(), 2U);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, ConstructWithDataValidatesSize) {
  EXPECT_NO_THROW((Tensor{{2, 2}, {1, 2, 3, 4}}));
  EXPECT_THROW((Tensor{{2, 2}, {1, 2, 3}}), std::invalid_argument);
}

TEST(Tensor, ShapeVolume) {
  EXPECT_EQ(shape_volume({}), 0U);
  EXPECT_EQ(shape_volume({5}), 5U);
  EXPECT_EQ(shape_volume({2, 3, 4}), 24U);
  EXPECT_EQ(shape_volume({2, 0, 4}), 0U);
}

TEST(Tensor, MultiIndexAccessors) {
  Tensor t{{2, 3}, {0, 1, 2, 3, 4, 5}};
  EXPECT_EQ(t.at2(0, 2), 2.0F);
  EXPECT_EQ(t.at2(1, 0), 3.0F);
  Tensor u{{2, 2, 2, 2}};
  u.at4(1, 0, 1, 0) = 9.0F;
  EXPECT_EQ(u[((1 * 2 + 0) * 2 + 1) * 2 + 0], 9.0F);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t{{3}};
  EXPECT_NO_THROW((void)t.at(2));
  EXPECT_THROW((void)t.at(3), std::out_of_range);
  EXPECT_THROW((void)t.dim(1), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t{{2, 3}, {0, 1, 2, 3, 4, 5}};
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3U);
  EXPECT_EQ(r[4], 4.0F);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a{{2}, {1, 2}};
  Tensor b{{2}, {10, 20}};
  EXPECT_EQ((a + b)[1], 22.0F);
  EXPECT_EQ((b - a)[0], 9.0F);
  EXPECT_EQ((a * 3.0F)[1], 6.0F);
  a.add_scaled_(b, 0.5F);
  EXPECT_EQ(a[0], 6.0F);
  EXPECT_EQ(a[1], 12.0F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a{{2}};
  Tensor b{{3}};
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(a.sub_(b), std::invalid_argument);
  EXPECT_THROW(a.add_scaled_(b, 1.0F), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t{{4}, {-1, 2, -3, 4}};
  EXPECT_DOUBLE_EQ(t.sum(), 2.0);
  EXPECT_EQ(t.max(), 4.0F);
  EXPECT_EQ(t.min(), -3.0F);
  EXPECT_NEAR(t.norm(), std::sqrt(1.0 + 4 + 9 + 16), 1e-12);
}

TEST(Tensor, EqualityAndShapeString) {
  Tensor a{{2, 2}, {1, 2, 3, 4}};
  Tensor b = a;
  EXPECT_EQ(a, b);
  b[0] = 9.0F;
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.shape_string(), "[2x2]");
}

TEST(Matmul, KnownProduct) {
  Tensor a{{2, 3}, {1, 2, 3, 4, 5, 6}};
  Tensor b{{3, 2}, {7, 8, 9, 10, 11, 12}};
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(c.at2(0, 0), 58.0F);
  EXPECT_EQ(c.at2(0, 1), 64.0F);
  EXPECT_EQ(c.at2(1, 0), 139.0F);
  EXPECT_EQ(c.at2(1, 1), 154.0F);
}

TEST(Matmul, ShapeErrors) {
  Tensor a{{2, 3}};
  Tensor b{{2, 2}};
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  Tensor c{{3}};
  EXPECT_THROW(matmul(a, c), std::invalid_argument);
}

TEST(Matmul, AccumulateFlag) {
  Tensor a{{1, 1}, {2}};
  Tensor b{{1, 1}, {3}};
  Tensor c{{1, 1}, {100}};
  matmul_into(a, b, c, /*accumulate=*/true);
  EXPECT_EQ(c[0], 106.0F);
  matmul_into(a, b, c, /*accumulate=*/false);
  EXPECT_EQ(c[0], 6.0F);
}

bool same_bytes(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Property: the transposed variants agree with explicit transposition, bit
// for bit — every variant adds each output's products in ascending k.
class MatmulVariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatmulVariants, TransposedVariantsAgree) {
  util::Rng rng{GetParam()};
  const std::size_t m = 1 + rng.next_below(6);
  const std::size_t k = 1 + rng.next_below(6);
  const std::size_t n = 1 + rng.next_below(6);

  auto fill = [&](Tensor& t) {
    for (float& v : t.values()) {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  };
  Tensor a{{m, k}}, b{{k, n}};
  fill(a);
  fill(b);
  const Tensor expect = matmul(a, b);

  // matmul_at: pass a stored as [k, m].
  Tensor a_t{{k, m}};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) a_t.at2(j, i) = a.at2(i, j);
  }
  const Tensor via_at = matmul_at(a_t, b);
  ASSERT_EQ(via_at.shape(), expect.shape());
  EXPECT_TRUE(same_bytes(via_at.data(), expect.data(), expect.size()));

  // matmul_bt: pass b stored as [n, k].
  Tensor b_t{{n, k}};
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) b_t.at2(j, i) = b.at2(i, j);
  }
  const Tensor via_bt = matmul_bt(a, b_t);
  ASSERT_EQ(via_bt.shape(), expect.shape());
  EXPECT_TRUE(same_bytes(via_bt.data(), expect.data(), expect.size()));
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatmulVariants,
                         ::testing::Range<std::uint64_t>(0, 20));

// ----- bit-exact parity of the GEMM core ------------------------------------
//
// The reference is the three scalar loops the GEMM core replaced, copied
// verbatim (this file is built with -ffp-contract=off, like the core).

void ref_matmul_into(const float* pa, const float* pb, float* pc,
                     std::size_t m, std::size_t k, std::size_t n,
                     bool accumulate) {
  if (!accumulate) std::fill(pc, pc + m * n, 0.0F);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

// A stored [K, M].
void ref_matmul_at(const float* pa, const float* pb, float* pc,
                   std::size_t m, std::size_t k, std::size_t n) {
  std::fill(pc, pc + m * n, 0.0F);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

// B stored [N, K].
void ref_matmul_bt(const float* pa, const float* pb, float* pc,
                   std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0F;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      pc[i * n + j] = acc;
    }
  }
}

/// Ordinary values, with about 5 in `rarity` special: signed zeros,
/// denormals, and tiny values whose products underflow into denormals.
/// (Denormal arithmetic runs on slow microcode, so the large shapes use a
/// high rarity.)
float tricky_value(util::Rng& rng, std::uint64_t rarity) {
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  switch (rng.next_below(rarity)) {
    case 0: return -0.0F;
    case 1: return 0.0F;
    case 2: return static_cast<float>(rng.uniform(-1.0, 1.0)) * 1e-39F;
    case 3: return static_cast<float>(rng.uniform(-1.0, 1.0)) * 1e-20F;
    case 4: return rng.next_below(2) == 0 ? denorm_min : -denorm_min;
    default: return static_cast<float>(rng.uniform(-2.0, 2.0));
  }
}

std::vector<float> tricky(std::size_t size, util::Rng& rng,
                          std::uint64_t rarity) {
  std::vector<float> v(size);
  for (float& x : v) x = tricky_value(rng, rarity);
  return v;
}

std::vector<float> transposed(const std::vector<float>& v, std::size_t rows,
                              std::size_t cols) {
  std::vector<float> t(v.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = v[r * cols + c];
  }
  return t;
}

std::vector<float> values_of(const Tensor& t) {
  return {t.values().begin(), t.values().end()};
}

const char* isa_name(gemm::Isa isa) {
  return isa == gemm::Isa::kAvx2 ? "avx2" : "scalar";
}

/// Checks the `isa` path of the core (and, when it is the one this CPU
/// runs, the public entry points) against the reference loops on all
/// (m, n) in dims x dims at depth k. Returns the number of mismatching
/// products; the first few are reported.
std::size_t parity_mismatches(gemm::Isa isa,
                              const std::vector<std::size_t>& dims,
                              std::size_t k, std::uint64_t rarity,
                              util::Rng& rng) {
  std::size_t mismatches = 0;
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      const std::vector<float> a = tricky(m * k, rng, rarity);
      const std::vector<float> b = tricky(k * n, rng, rarity);
      const std::vector<float> c0 = tricky(m * n, rng, rarity);
      const std::vector<float> a_t = transposed(a, m, k);
      const std::vector<float> b_t = transposed(b, k, n);

      std::vector<float> plain(m * n), at(m * n), bt(m * n), acc = c0;
      ref_matmul_into(a.data(), b.data(), plain.data(), m, k, n, false);
      ref_matmul_at(a_t.data(), b.data(), at.data(), m, k, n);
      ref_matmul_bt(a.data(), b_t.data(), bt.data(), m, k, n);
      ref_matmul_into(a.data(), b.data(), acc.data(), m, k, n, true);

      const auto check = [&](const std::vector<float>& got,
                             const std::vector<float>& want,
                             const std::string& what) {
        if (same_bytes(got.data(), want.data(), want.size())) return;
        if (++mismatches <= 5) {
          ADD_FAILURE() << isa_name(isa) << " " << what << " differs at m="
                        << m << " n=" << n << " k=" << k;
        }
      };
      std::vector<float> out(m * n, 7.0F);
      gemm::gemm(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, out.data(), n,
                 false, isa);
      check(out, plain, "A*B");
      gemm::gemm(m, n, k, {a_t.data(), 1, m}, {b.data(), n, 1}, out.data(), n,
                 false, isa);
      check(out, at, "A^T*B");
      gemm::gemm(m, n, k, {a.data(), k, 1}, {b_t.data(), 1, k}, out.data(), n,
                 false, isa);
      check(out, bt, "A*B^T");
      out = c0;
      gemm::gemm(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, out.data(), n,
                 true, isa);
      check(out, acc, "C+=A*B");

      // The public entry points wire their strides through correctly.
      if (isa != gemm::best_isa()) continue;
      const Tensor ta{{m, k}, a}, tb{{k, n}, b};
      check(values_of(matmul(ta, tb)), plain, "matmul");
      check(values_of(matmul_at(Tensor{{k, m}, a_t}, tb)), at, "matmul_at");
      check(values_of(matmul_bt(ta, Tensor{{n, k}, b_t})), bt, "matmul_bt");
      Tensor acc_out{{m, n}, c0};
      matmul_into(ta, tb, acc_out, /*accumulate=*/true);
      check(values_of(acc_out), acc, "matmul_into accumulate");
    }
  }
  return mismatches;
}

const std::vector<std::size_t> kGridDims{1,  2,  3,  4,  5,  7,   8,  9,
                                         15, 16, 17, 33, 75, 120, 150};

TEST(GemmParity, SignedZerosAndDenormalsOnSmallShapes) {
  util::Rng rng{99};
  for (gemm::Isa isa : {gemm::Isa::kScalar, gemm::Isa::kAvx2}) {
    if (!gemm::supported(isa)) continue;
    for (std::size_t k : {1, 6, 33}) {
      EXPECT_EQ(parity_mismatches(isa, {1, 5, 17}, k, /*rarity=*/8, rng), 0U)
          << isa_name(isa);
    }
  }
}

// Shapes cross every tile edge (4 x 16 register tiles, 256-deep K-blocks)
// and both loop forms; K is the test parameter. The scalar path runs on
// every host, so an AVX2 host also tests the fallback.
class GemmParityGrid : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GemmParityGrid, ScalarPathMatchesThePreChangeLoops) {
  util::Rng rng{GetParam()};
  EXPECT_EQ(parity_mismatches(gemm::Isa::kScalar, kGridDims, GetParam(),
                              /*rarity=*/256, rng),
            0U);
}

TEST_P(GemmParityGrid, Avx2PathMatchesThePreChangeLoops) {
  if (!gemm::supported(gemm::Isa::kAvx2)) GTEST_SKIP() << "no AVX2 on this CPU";
  util::Rng rng{GetParam()};
  EXPECT_EQ(parity_mismatches(gemm::Isa::kAvx2, kGridDims, GetParam(),
                              /*rarity=*/256, rng),
            0U);
}

INSTANTIATE_TEST_SUITE_P(DepthK, GemmParityGrid,
                         ::testing::Values<std::size_t>(1, 6, 100, 400, 784));

}  // namespace
}  // namespace roadrunner::ml
