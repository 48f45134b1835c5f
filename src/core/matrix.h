// Dense small complex matrices for gate algebra.
//
// Gate matrices are at most 2^6 x 2^6 (the fuser caps fused gates at six
// qubits), so a simple row-major std::vector<cplx64> is the right data
// structure: no sparsity, no blocking, everything fits in L1. All gate
// matrices are stored in double precision and converted to the simulation
// precision at apply time, so both the single- and double-precision builds
// share one set of gate definitions.
//
// Copies share their entries until one of them is written (copy on write):
// circuits are copied per request — into engine jobs, caches, client-side
// records — while their gate matrices are almost never modified after
// construction, so a circuit copy costs its gate headers, not its matrices.
// A non-const accessor (at, data) first takes a private copy of shared
// entries; a reference it returns must not be held across a copy of the
// matrix it came from.
//
// Index convention: for a matrix acting on qubits (q_0, q_1, ..., q_{k-1}),
// bit j of a row/column index corresponds to qubit q_j; q_0 is the least
// significant bit. This matches the state-vector convention where amplitude
// index bit b is the value of qubit b.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/base/types.h"

namespace qhip {

// Square complex matrix of dimension dim() = 2^num_qubits().
class CMatrix {
 public:
  CMatrix() = default;

  // Zero matrix of dimension `dim` (must be a power of two).
  explicit CMatrix(std::size_t dim);

  // From row-major data; data.size() must be dim*dim.
  CMatrix(std::size_t dim, std::vector<cplx64> data);

  static CMatrix identity(std::size_t dim);

  std::size_t dim() const { return dim_; }
  unsigned num_qubits() const;

  cplx64& at(std::size_t r, std::size_t c) { return data()[r * dim_ + c]; }
  const cplx64& at(std::size_t r, std::size_t c) const {
    return (*data_)[r * dim_ + c];
  }

  const std::vector<cplx64>& data() const;
  std::vector<cplx64>& data() {
    if (!data_ || data_.use_count() > 1) unshare();
    return *data_;
  }

  // Matrix product this * rhs (dimensions must match).
  CMatrix operator*(const CMatrix& rhs) const;

  // Conjugate transpose.
  CMatrix adjoint() const;

  // Tensor product: (*this) ⊗ rhs. With the bit convention above, `rhs`
  // owns the low-order index bits of the result.
  CMatrix kron(const CMatrix& rhs) const;

  // Frobenius norm of (this - rhs).
  double distance(const CMatrix& rhs) const;

  // || this * this^dagger - I ||_max; a unitary gives ~0.
  double unitarity_error() const;
  bool is_unitary(double tol = 1e-10) const;

  // Reorders index bits: bit j of the new index corresponds to bit perm[j]
  // of the old index. Used to normalize gates to ascending qubit order.
  CMatrix permute_bits(const std::vector<unsigned>& perm) const;

  // In-place left-compose a k-qubit gate acting on a subset of this matrix's
  // qubits: this <- expand(gate, positions) * this, where positions[j] is the
  // index bit (qubit slot) of *this* matrix that gate bit j acts on.
  // This is the core of gate fusion: the fused matrix accumulates constituent
  // gates without ever materializing the expanded (sparse) matrix.
  void compose_on_qubits(const CMatrix& gate, const std::vector<unsigned>& positions);

  bool operator==(const CMatrix& rhs) const {
    return dim_ == rhs.dim_ && data() == rhs.data();
  }

 private:
  void unshare();  // gives data_ a private (possibly empty) buffer

  std::size_t dim_ = 0;
  std::shared_ptr<std::vector<cplx64>> data_;  // row-major; shared by copies
};

// Eigenvalues of a Hermitian matrix (ascending), by cyclic complex Jacobi
// rotations. Intended for the small matrices this library manipulates
// (reduced density matrices, gate generators); dim <= 256.
std::vector<double> hermitian_eigenvalues(const CMatrix& m, double tol = 1e-12);

}  // namespace qhip
