#include "src/core/matrix.h"

#include <gtest/gtest.h>

#include <numbers>
#include <utility>

#include "src/base/error.h"
#include "src/base/rng.h"

namespace qhip {
namespace {

CMatrix random_unitary2(Xoshiro256& rng) {
  // Random SU(2) from three angles.
  const double a = rng.uniform() * 2 * std::numbers::pi;
  const double b = rng.uniform() * 2 * std::numbers::pi;
  const double t = rng.uniform() * std::numbers::pi;
  const cplx64 e1 = std::polar(1.0, a), e2 = std::polar(1.0, b);
  return CMatrix(2, {e1 * std::cos(t), e2 * std::sin(t),
                     -std::conj(e2) * std::sin(t), std::conj(e1) * std::cos(t)});
}

TEST(CMatrix, IdentityAndDim) {
  const CMatrix i4 = CMatrix::identity(4);
  EXPECT_EQ(i4.dim(), 4u);
  EXPECT_EQ(i4.num_qubits(), 2u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(i4.at(r, c), (r == c ? cplx64{1} : cplx64{}));
    }
  }
}

// Copies share their entries until one is written, and writes never show
// through to another copy: value semantics with the memory of one buffer.
TEST(CMatrix, CopiesShareEntriesUntilWritten) {
  const CMatrix a = CMatrix::identity(4);
  CMatrix b = a;
  CMatrix c = b;
  EXPECT_EQ(&a.data(), &std::as_const(b).data());  // one buffer, three copies
  b.at(0, 1) = 2.0;
  EXPECT_EQ(a.at(0, 1), cplx64(0.0));
  EXPECT_EQ(std::as_const(c).at(0, 1), cplx64(0.0));
  EXPECT_EQ(b.at(0, 1), cplx64(2.0));
  for (cplx64& v : c.data()) v *= 3.0;
  EXPECT_EQ(a.at(1, 1), cplx64(1.0));
  EXPECT_EQ(b.at(1, 1), cplx64(1.0));
  EXPECT_EQ(c.at(1, 1), cplx64(3.0));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, CMatrix::identity(4));  // equality compares entries
  // A matrix built in place (fusion composes into a copy) leaves its source
  // alone.
  CMatrix fused = a;
  fused.compose_on_qubits(CMatrix(2, {0, 1, 1, 0}), {0});
  EXPECT_EQ(a, CMatrix::identity(4));
  EXPECT_EQ(fused.at(1, 0), cplx64(1.0));
  // Default-constructed: empty, and writable once given entries.
  CMatrix e;
  EXPECT_TRUE(std::as_const(e).data().empty());
  EXPECT_TRUE(e.data().empty());
  EXPECT_EQ(e, CMatrix());
}

TEST(CMatrix, RejectsNonPow2) {
  EXPECT_THROW(CMatrix(3), Error);
  EXPECT_THROW(CMatrix(4, std::vector<cplx64>(3)), Error);
}

TEST(CMatrix, MultiplyIdentity) {
  Xoshiro256 rng(1);
  const CMatrix u = random_unitary2(rng);
  EXPECT_LT((u * CMatrix::identity(2)).distance(u), 1e-14);
  EXPECT_LT((CMatrix::identity(2) * u).distance(u), 1e-14);
}

TEST(CMatrix, MultiplyKnown) {
  const CMatrix x(2, {0, 1, 1, 0});
  const CMatrix z(2, {1, 0, 0, -1});
  const CMatrix xz = x * z;  // X*Z = [[0,-1],[1,0]]
  EXPECT_EQ(xz.at(0, 0), cplx64{});
  EXPECT_EQ(xz.at(0, 1), cplx64{-1});
  EXPECT_EQ(xz.at(1, 0), cplx64{1});
  EXPECT_EQ(xz.at(1, 1), cplx64{});
}

TEST(CMatrix, MultiplyNotCommutative) {
  const CMatrix x(2, {0, 1, 1, 0});
  const CMatrix z(2, {1, 0, 0, -1});
  EXPECT_GT((x * z).distance(z * x), 1.0);
}

TEST(CMatrix, AdjointOfUnitaryIsInverse) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 20; ++i) {
    const CMatrix u = random_unitary2(rng);
    EXPECT_LT((u * u.adjoint()).distance(CMatrix::identity(2)), 1e-12);
  }
}

TEST(CMatrix, UnitarityCheck) {
  Xoshiro256 rng(3);
  const CMatrix u = random_unitary2(rng);
  EXPECT_TRUE(u.is_unitary());
  CMatrix bad = u;
  bad.at(0, 0) += 0.01;
  EXPECT_FALSE(bad.is_unitary(1e-6));
}

TEST(CMatrix, KronDims) {
  Xoshiro256 rng(4);
  const CMatrix a = random_unitary2(rng), b = random_unitary2(rng);
  const CMatrix k = a.kron(b);
  EXPECT_EQ(k.dim(), 4u);
  EXPECT_TRUE(k.is_unitary());
}

TEST(CMatrix, KronEntries) {
  const CMatrix a(2, {1, 2, 3, 4});
  const CMatrix b(2, {0, 5, 6, 7});
  const CMatrix k = a.kron(b);
  // k[(r1 r2),(c1 c2)] = a[r1,c1] * b[r2,c2]
  EXPECT_EQ(k.at(0, 1), cplx64{5});   // a[0,0] * b[0,1]
  EXPECT_EQ(k.at(1, 0), cplx64{6});   // a[0,0] * b[1,0]
  EXPECT_EQ(k.at(2, 2), cplx64{0});   // a[1,1] * b[0,0]
}

TEST(CMatrix, KronAgainstManual) {
  const CMatrix a(2, {1, 2, 3, 4});
  const CMatrix b(2, {5, 6, 7, 8});
  const CMatrix k = a.kron(b);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::size_t r1 = r >> 1, r2 = r & 1, c1 = c >> 1, c2 = c & 1;
      EXPECT_EQ(k.at(r, c), a.at(r1, c1) * b.at(r2, c2)) << r << "," << c;
    }
  }
}

TEST(CMatrix, PermuteBitsSwap) {
  // Swapping the two index bits of a 2-qubit matrix = conjugation by SWAP.
  Xoshiro256 rng(5);
  const CMatrix a = random_unitary2(rng), b = random_unitary2(rng);
  const CMatrix ab = a.kron(b);   // a on high bit, b on low bit
  const CMatrix ba = b.kron(a);
  EXPECT_LT(ab.permute_bits({1, 0}).distance(ba), 1e-13);
}

TEST(CMatrix, PermuteIdentityPermutation) {
  Xoshiro256 rng(6);
  const CMatrix m = random_unitary2(rng).kron(random_unitary2(rng));
  EXPECT_LT(m.permute_bits({0, 1}).distance(m), 1e-15);
}

TEST(CMatrix, ComposeOnQubitsFullSpan) {
  // Composing over the full qubit range equals plain matrix product.
  Xoshiro256 rng(7);
  const CMatrix m0 = random_unitary2(rng).kron(random_unitary2(rng));
  const CMatrix g = random_unitary2(rng).kron(random_unitary2(rng));
  CMatrix acc = m0;
  acc.compose_on_qubits(g, {0, 1});
  EXPECT_LT(acc.distance(g * m0), 1e-12);
}

TEST(CMatrix, ComposeOnSubsetMatchesKron) {
  // Applying g on bit 0 of a 2-qubit identity equals I (x) g.
  Xoshiro256 rng(8);
  const CMatrix g = random_unitary2(rng);
  CMatrix acc = CMatrix::identity(4);
  acc.compose_on_qubits(g, {0});
  EXPECT_LT(acc.distance(CMatrix::identity(2).kron(g)), 1e-13);

  // On bit 1: g (x) I.
  CMatrix acc2 = CMatrix::identity(4);
  acc2.compose_on_qubits(g, {1});
  EXPECT_LT(acc2.distance(g.kron(CMatrix::identity(2))), 1e-13);
}

TEST(CMatrix, ComposeAccumulatesInOrder) {
  Xoshiro256 rng(9);
  const CMatrix g1 = random_unitary2(rng), g2 = random_unitary2(rng);
  CMatrix acc = CMatrix::identity(2);
  acc.compose_on_qubits(g1, {0});
  acc.compose_on_qubits(g2, {0});
  EXPECT_LT(acc.distance(g2 * g1), 1e-12);
}

TEST(CMatrix, ComposePreservesUnitarity) {
  Xoshiro256 rng(10);
  CMatrix acc = CMatrix::identity(8);
  for (int i = 0; i < 10; ++i) {
    const CMatrix g = random_unitary2(rng);
    acc.compose_on_qubits(g, {static_cast<unsigned>(i % 3)});
  }
  EXPECT_TRUE(acc.is_unitary(1e-10));
}

TEST(CMatrix, DistanceZeroForEqual) {
  const CMatrix a(2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(a.distance(a), 0.0);
}

}  // namespace
}  // namespace qhip
