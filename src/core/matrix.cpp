#include "src/core/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "src/base/bits.h"
#include "src/base/error.h"

namespace qhip {

CMatrix::CMatrix(std::size_t dim)
    : dim_(dim), data_(std::make_shared<std::vector<cplx64>>(dim * dim)) {
  check(is_pow2(dim), "CMatrix: dimension must be a power of two");
}

CMatrix::CMatrix(std::size_t dim, std::vector<cplx64> data)
    : dim_(dim), data_(std::make_shared<std::vector<cplx64>>(std::move(data))) {
  check(is_pow2(dim), "CMatrix: dimension must be a power of two");
  check(data_->size() == dim * dim, "CMatrix: data size does not match dimension");
}

const std::vector<cplx64>& CMatrix::data() const {
  static const std::vector<cplx64> kEmpty;
  return data_ ? *data_ : kEmpty;
}

void CMatrix::unshare() {
  data_ = data_ ? std::make_shared<std::vector<cplx64>>(*data_)
                : std::make_shared<std::vector<cplx64>>();
}

CMatrix CMatrix::identity(std::size_t dim) {
  CMatrix m(dim);
  for (std::size_t i = 0; i < dim; ++i) m.at(i, i) = 1.0;
  return m;
}

unsigned CMatrix::num_qubits() const { return log2_exact(dim_); }

CMatrix CMatrix::operator*(const CMatrix& rhs) const {
  check(dim_ == rhs.dim_, "CMatrix::operator*: dimension mismatch");
  CMatrix out(dim_);
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t k = 0; k < dim_; ++k) {
      const cplx64 a = at(r, k);
      if (a == cplx64{}) continue;
      for (std::size_t c = 0; c < dim_; ++c) {
        out.at(r, c) += a * rhs.at(k, c);
      }
    }
  }
  return out;
}

CMatrix CMatrix::adjoint() const {
  CMatrix out(dim_);
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      out.at(c, r) = std::conj(at(r, c));
    }
  }
  return out;
}

CMatrix CMatrix::kron(const CMatrix& rhs) const {
  CMatrix out(dim_ * rhs.dim_);
  for (std::size_t r1 = 0; r1 < dim_; ++r1) {
    for (std::size_t c1 = 0; c1 < dim_; ++c1) {
      const cplx64 a = at(r1, c1);
      if (a == cplx64{}) continue;
      for (std::size_t r2 = 0; r2 < rhs.dim_; ++r2) {
        for (std::size_t c2 = 0; c2 < rhs.dim_; ++c2) {
          out.at(r1 * rhs.dim_ + r2, c1 * rhs.dim_ + c2) = a * rhs.at(r2, c2);
        }
      }
    }
  }
  return out;
}

double CMatrix::distance(const CMatrix& rhs) const {
  check(dim_ == rhs.dim_, "CMatrix::distance: dimension mismatch");
  double s = 0;
  const std::vector<cplx64>& a = data();
  const std::vector<cplx64>& b = rhs.data();
  for (std::size_t i = 0; i < a.size(); ++i) s += std::norm(a[i] - b[i]);
  return std::sqrt(s);
}

double CMatrix::unitarity_error() const {
  const CMatrix p = *this * adjoint();
  double worst = 0;
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      const cplx64 want = r == c ? cplx64{1.0} : cplx64{};
      worst = std::max(worst, std::abs(p.at(r, c) - want));
    }
  }
  return worst;
}

bool CMatrix::is_unitary(double tol) const { return unitarity_error() <= tol; }

CMatrix CMatrix::permute_bits(const std::vector<unsigned>& perm) const {
  check(perm.size() == num_qubits(), "CMatrix::permute_bits: wrong permutation size");
  auto remap = [&perm](std::size_t idx) {
    std::size_t out = 0;
    for (std::size_t j = 0; j < perm.size(); ++j) {
      if (idx & (std::size_t{1} << j)) out |= std::size_t{1} << perm[j];
    }
    return out;
  };
  CMatrix out(dim_);
  for (std::size_t r = 0; r < dim_; ++r) {
    const std::size_t pr = remap(r);
    for (std::size_t c = 0; c < dim_; ++c) {
      out.at(pr, remap(c)) = at(r, c);
    }
  }
  return out;
}

void CMatrix::compose_on_qubits(const CMatrix& gate,
                                const std::vector<unsigned>& positions) {
  const std::size_t gd = gate.dim();
  check(positions.size() == gate.num_qubits(),
        "CMatrix::compose_on_qubits: positions/gate size mismatch");
  for (unsigned p : positions) {
    check(p < num_qubits(), "CMatrix::compose_on_qubits: position out of range");
  }

  // Masks scattering the gate-local index bits onto this matrix's index bits.
  std::vector<index_t> member(gd);
  for (std::size_t k = 0; k < gd; ++k) {
    index_t m = 0;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (k & (std::size_t{1} << j)) m |= index_t{1} << positions[j];
    }
    member[k] = m;
  }
  std::vector<qubit_t> sorted(positions.begin(), positions.end());
  std::sort(sorted.begin(), sorted.end());

  // Apply `gate` to every column of *this*, treating each column as a state
  // vector over num_qubits() qubits.
  const std::size_t outer = dim_ >> positions.size();
  std::vector<cplx64> tmp(gd);
  std::vector<cplx64>& d = data();  // unshared once, outside the loops
  for (std::size_t c = 0; c < dim_; ++c) {
    for (std::size_t o = 0; o < outer; ++o) {
      const index_t base = expand_bits(o, sorted);
      for (std::size_t k = 0; k < gd; ++k) tmp[k] = d[(base | member[k]) * dim_ + c];
      for (std::size_t rk = 0; rk < gd; ++rk) {
        cplx64 acc{};
        for (std::size_t ck = 0; ck < gd; ++ck) {
          acc += gate.at(rk, ck) * tmp[ck];
        }
        d[(base | member[rk]) * dim_ + c] = acc;
      }
    }
  }
}

std::vector<double> hermitian_eigenvalues(const CMatrix& m, double tol) {
  const std::size_t n = m.dim();
  check(n >= 1 && n <= 256, "hermitian_eigenvalues: dimension out of range");
  // Hermiticity check (cheap; catches misuse early).
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      check(std::abs(m.at(r, c) - std::conj(m.at(c, r))) < 1e-8,
            "hermitian_eigenvalues: matrix is not Hermitian");
    }
  }

  CMatrix a = m;
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += std::norm(a.at(p, q));
    }
    if (off < tol * tol) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const cplx64 w = a.at(p, q);
        const double aw = std::abs(w);
        if (aw < 1e-300) continue;
        const double app = a.at(p, p).real();
        const double aqq = a.at(q, q).real();
        // Phase to make the off-diagonal real, then a real Jacobi rotation.
        const cplx64 phase = w / aw;  // e^{i phi}
        double theta;
        if (std::abs(app - aqq) < 1e-300) {
          theta = std::numbers::pi / 4;
        } else {
          theta = 0.5 * std::atan2(2 * aw, app - aqq);
        }
        const double c = std::cos(theta), s = std::sin(theta);
        // Column rotation: J_pp = c, J_pq = -s, J_qp = s*conj(phase)... with
        // the phase folded into column q: J = [[c, -s*phase],[s*conj(phase), c]].
        const cplx64 jpq = -s * phase;
        const cplx64 jqp = s * std::conj(phase);
        // A <- J^dagger A J ; update columns then rows.
        for (std::size_t r = 0; r < n; ++r) {
          const cplx64 arp = a.at(r, p), arq = a.at(r, q);
          a.at(r, p) = arp * c + arq * jqp;
          a.at(r, q) = arp * jpq + arq * c;
        }
        for (std::size_t cc = 0; cc < n; ++cc) {
          const cplx64 apc = a.at(p, cc), aqc = a.at(q, cc);
          a.at(p, cc) = c * apc + std::conj(jqp) * aqc;
          a.at(q, cc) = std::conj(jpq) * apc + c * aqc;
        }
      }
    }
  }
  std::vector<double> eig(n);
  for (std::size_t i = 0; i < n; ++i) eig[i] = a.at(i, i).real();
  std::sort(eig.begin(), eig.end());
  return eig;
}

}  // namespace qhip
