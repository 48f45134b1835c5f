// The host apply kernels behind apply_gate_routed_with, and the
// once-per-process choice between them.
//
// AVX2/FMA kernel. Amplitudes are interleaved std::complex (re, im), so one
// 256-bit register holds 4 complex floats or 2 complex doubles: the low
// kLaneBits (2 or 1) bits of the state index select the lane. Like the GPU
// backend's H/L split at the warp width (paper §2.3), the kernel has two
// paths:
//   H path  every target slot is >= kLaneBits. The lanes of a register are
//           independent groups, and group member k is one whole register.
//   L path  a target slot is < kLaneBits. The lanes of a register hold
//           different members of the same groups: each column's operand is a
//           lane permute of a loaded register, and each matrix entry is a
//           per-lane register (lane l holds the entry of the row lane l
//           outputs).
// Both compute, per lane, acc = 0, then acc += x_c * m_rc over the columns c
// in the gate's target order, with the product as
//   re = fma(x.re, m.re, -(x.im * m.im)),  im = fma(x.im, m.re, x.re * m.im)
// (one fmaddsub). Which lane a value sits in never changes its bits, so
// neither the path taken nor the slot routing does. States smaller than one
// register (a float qubit) take the same arithmetic in scalar code.
//
// Build rule: this file is compiled without -mavx2. Only the functions
// marked QHIP_AVX2 carry AVX2 code, through target attributes, so every
// header inline or template instantiated here is baseline x86-64 code, and
// host_kernel() selects the AVX2 kernel only after __builtin_cpu_supports
// has confirmed AVX2 and FMA.
#include "src/simulator/apply.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "src/base/bits.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define QHIP_HAVE_AVX2_KERNEL 1
#define QHIP_AVX2 __attribute__((target("avx2,fma")))
#endif

namespace qhip {
namespace {

// Validated operands of one routed apply, shared by both kernels.
template <typename FP>
struct Operands {
  unsigned q = 0;
  std::vector<cplx<FP>> m;      // row-major 2^q x 2^q in gate target order
  std::vector<qubit_t> sorted;  // target slots, ascending
  std::vector<index_t> member;  // member[k]: bit j of k moved to slots[j]
};

template <typename FP>
Operands<FP> operands(const Gate& g, const std::vector<qubit_t>& slots,
                      const StateVector<FP>& state) {
  check(g.kind == GateKind::kUnitary, "apply_gate_inplace: not a unitary gate");
  check(g.controls.empty(), "apply_gate_inplace: fold controls first");
  Operands<FP> op;
  op.q = g.num_targets();
  check(op.q <= state.num_qubits(), "apply_gate_inplace: gate wider than state");
  check(slots.size() == op.q, "apply_gate_inplace: one slot per target");
  op.sorted = slots;
  std::sort(op.sorted.begin(), op.sorted.end());
  check(std::adjacent_find(op.sorted.begin(), op.sorted.end()) == op.sorted.end(),
        "apply_gate_inplace: duplicate target slots");
  for (qubit_t t : op.sorted) {
    check(t < state.num_qubits(), "apply_gate_inplace: target out of range");
  }
  op.m = detail::matrix_as<FP>(g.matrix);
  op.member = scatter_masks(slots);
  return op;
}

// Runs fn(std::integral_constant<unsigned, Q>) with Q = q for the widths
// worth unrolling (1..6), Q = 0 (width read at run time) otherwise.
template <typename Fn>
void with_width(unsigned q, Fn&& fn) {
  switch (q) {
    case 1: fn(std::integral_constant<unsigned, 1>{}); break;
    case 2: fn(std::integral_constant<unsigned, 2>{}); break;
    case 3: fn(std::integral_constant<unsigned, 3>{}); break;
    case 4: fn(std::integral_constant<unsigned, 4>{}); break;
    case 5: fn(std::integral_constant<unsigned, 5>{}); break;
    case 6: fn(std::integral_constant<unsigned, 6>{}); break;
    default: fn(std::integral_constant<unsigned, 0>{});
  }
}

// --- scalar kernel -----------------------------------------------------------

// Applies the gate to the outer-group range [begin, end): gather the group,
// multiply by the matrix, scatter back. Q = 0 reads the width from `op`.
template <typename FP, unsigned Q>
void scalar_groups(const Operands<FP>& op, cplx<FP>* amps, index_t begin,
                   index_t end) {
  const std::size_t d = std::size_t{1} << (Q != 0 ? Q : op.q);
  std::array<qubit_t, Q> sorted{};
  std::copy_n(op.sorted.begin(), Q, sorted.begin());
  std::array<cplx<FP>, (std::size_t{1} << Q)> fixed;
  std::vector<cplx<FP>> heap(Q != 0 ? 0 : d);
  cplx<FP>* const tmp = Q != 0 ? fixed.data() : heap.data();
  const cplx<FP>* const m = op.m.data();
  for (index_t o = begin; o < end; ++o) {
    const index_t base =
        Q != 0 ? expand_bits(o, sorted) : expand_bits(o, op.sorted);
    for (std::size_t k = 0; k < d; ++k) tmp[k] = amps[base | op.member[k]];
    for (std::size_t r = 0; r < d; ++r) {
      cplx<FP> acc{};
      const cplx<FP>* row = m + r * d;
      for (std::size_t c = 0; c < d; ++c) acc += row[c] * tmp[c];
      amps[base | op.member[r]] = acc;
    }
  }
}

template <typename FP>
void apply_scalar(const Operands<FP>& op, StateVector<FP>& state,
                  ThreadPool& pool) {
  const index_t outer = state.size() >> op.q;
  cplx<FP>* amps = state.data();
  with_width(op.q, [&](auto qc) {
    constexpr unsigned Q = decltype(qc)::value;
    pool.parallel_ranges(outer, [&](unsigned, index_t b, index_t e) {
      scalar_groups<FP, Q>(op, amps, b, e);
    });
  });
}

// --- AVX2/FMA kernel ---------------------------------------------------------

#ifdef QHIP_HAVE_AVX2_KERNEL

// One register of interleaved complex FP.
template <typename FP>
struct Lanes;

template <>
struct Lanes<float> {
  using reg = __m256;
  static constexpr unsigned kLaneBits = 2;  // 4 complex per register
  QHIP_AVX2 static reg load(const float* p) { return _mm256_loadu_ps(p); }
  QHIP_AVX2 static void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
  QHIP_AVX2 static reg zero() { return _mm256_setzero_ps(); }
  // (re, im) -> (im, re) in every lane.
  QHIP_AVX2 static reg swap(reg v) { return _mm256_permute_ps(v, 0xB1); }
  // Word w of the result = word idx[w] of v (8 x 32-bit words).
  QHIP_AVX2 static reg permute(reg v, const std::int32_t* idx) {
    return _mm256_permutevar8x32_ps(
        v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)));
  }
  // acc + x * m, given x's swap xs and m's duplicated parts (mr, mi).
  QHIP_AVX2 static reg cmul_add(reg acc, reg x, reg xs, reg mr, reg mi) {
    return _mm256_add_ps(acc, _mm256_fmaddsub_ps(x, mr, _mm256_mul_ps(xs, mi)));
  }
};

template <>
struct Lanes<double> {
  using reg = __m256d;
  static constexpr unsigned kLaneBits = 1;  // 2 complex per register
  QHIP_AVX2 static reg load(const double* p) { return _mm256_loadu_pd(p); }
  QHIP_AVX2 static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  QHIP_AVX2 static reg zero() { return _mm256_setzero_pd(); }
  QHIP_AVX2 static reg swap(reg v) { return _mm256_permute_pd(v, 0x5); }
  QHIP_AVX2 static reg permute(reg v, const std::int32_t* idx) {
    return _mm256_castps_pd(_mm256_permutevar8x32_ps(
        _mm256_castpd_ps(v),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx))));
  }
  QHIP_AVX2 static reg cmul_add(reg acc, reg x, reg xs, reg mr, reg mi) {
    return _mm256_add_pd(acc, _mm256_fmaddsub_pd(x, mr, _mm256_mul_pd(xs, mi)));
  }
};

// Per-gate tables of the AVX2 kernel. A chunk is the set of registers one
// gate application reads and writes together: 2^qh registers at
// base | high_member[h], where qh counts the targets at slots >= kLaneBits.
template <typename FP>
struct AvxPlan {
  static constexpr unsigned kLaneBits = Lanes<FP>::kLaneBits;
  static constexpr unsigned kLanes = 1u << kLaneBits;  // complex per register
  static constexpr unsigned kWidth = 2 * kLanes;       // FP per register
  static constexpr unsigned kWords = 8 / kLanes;       // 32-bit words per complex

  unsigned q = 0, qh = 0;
  bool low = false;                    // L path: a target below kLaneBits
  std::vector<qubit_t> high_sorted;    // high target slots, ascending
  std::vector<index_t> high_member;    // register h's offset in a chunk
  std::vector<unsigned> col_reg;       // column c reads register col_reg[c]
  std::vector<std::int32_t> col_perm;  // L path: its lanes, 8 words per c
  std::vector<FP> mre, mim;  // register (h, c): m's re / im parts per lane
};

template <typename FP>
AvxPlan<FP> avx_plan(const Operands<FP>& op, const std::vector<qubit_t>& slots) {
  using P = AvxPlan<FP>;
  AvxPlan<FP> p;
  p.q = op.q;
  std::vector<unsigned> high, low;  // target indices j, gate order
  for (unsigned j = 0; j < op.q; ++j) {
    (slots[j] >= P::kLaneBits ? high : low).push_back(j);
  }
  p.qh = static_cast<unsigned>(high.size());
  p.low = !low.empty();
  std::vector<qubit_t> high_slots;
  for (unsigned j : high) high_slots.push_back(slots[j]);
  p.high_member = scatter_masks(high_slots);
  p.high_sorted = high_slots;
  std::sort(p.high_sorted.begin(), p.high_sorted.end());

  // Register h holds the high target bits h; lane l the low slot bits l.
  const auto reg_of = [&](index_t c) {
    index_t h = 0;
    for (unsigned i = 0; i < high.size(); ++i) h |= ((c >> high[i]) & 1) << i;
    return h;
  };
  const auto row_of = [&](index_t h, unsigned lane) {
    index_t r = 0;
    for (unsigned i = 0; i < high.size(); ++i) r |= ((h >> i) & 1) << high[i];
    for (unsigned j : low) r |= index_t{(lane >> slots[j]) & 1u} << j;
    return r;
  };

  const std::size_t d = std::size_t{1} << op.q, nh = std::size_t{1} << p.qh;
  p.col_reg.resize(d);
  p.col_perm.resize(8 * d);
  for (std::size_t c = 0; c < d; ++c) {
    p.col_reg[c] = static_cast<unsigned>(reg_of(c));
    for (unsigned l = 0; l < P::kLanes; ++l) {
      // Lane l takes column c's member: l with the low target bits of c.
      unsigned src = l;
      for (unsigned j : low) {
        src = (src & ~(1u << slots[j])) |
              (static_cast<unsigned>((c >> j) & 1) << slots[j]);
      }
      for (unsigned w = 0; w < P::kWords; ++w) {
        p.col_perm[8 * c + l * P::kWords + w] =
            static_cast<std::int32_t>(src * P::kWords + w);
      }
    }
  }
  p.mre.resize(nh * d * P::kWidth);
  p.mim.resize(nh * d * P::kWidth);
  for (std::size_t h = 0; h < nh; ++h) {
    for (std::size_t c = 0; c < d; ++c) {
      for (unsigned l = 0; l < P::kLanes; ++l) {
        const cplx<FP> v = op.m[row_of(h, l) * d + c];
        const std::size_t at = (h * d + c) * P::kWidth + 2 * l;
        p.mre[at] = p.mre[at + 1] = v.real();
        p.mim[at] = p.mim[at + 1] = v.imag();
      }
    }
  }
  return p;
}

// Applies the gate to chunks [begin, end). Q = 0 reads the width from `p`.
template <typename FP, unsigned Q>
QHIP_AVX2 void avx_chunks(const AvxPlan<FP>& p, FP* amps, index_t begin,
                          index_t end) {
  using V = Lanes<FP>;
  using reg = typename V::reg;
  constexpr unsigned W = AvxPlan<FP>::kWidth;
  const unsigned d = 1u << (Q != 0 ? Q : p.q);
  const unsigned nh = 1u << p.qh;
  // Column operands x_c and their swaps, staged once per chunk.
  alignas(32) FP fixed[Q != 0 ? 2 * W << Q : 1];
  std::vector<FP> heap(Q != 0 ? 0 : std::size_t{2} * W * d);
  FP* const x = Q != 0 ? fixed : heap.data();
  FP* const xs = x + std::size_t{W} * d;
  for (index_t vo = begin; vo < end; ++vo) {
    const index_t base =
        expand_bits(vo << AvxPlan<FP>::kLaneBits, p.high_sorted);
    for (unsigned c = 0; c < d; ++c) {
      reg v = V::load(amps + 2 * (base | p.high_member[p.col_reg[c]]));
      if (p.low) v = V::permute(v, p.col_perm.data() + 8 * c);
      V::store(x + W * c, v);
      V::store(xs + W * c, V::swap(v));
    }
    // Output registers in pairs: each column operand is loaded once for
    // two rows, and the two accumulation chains overlap.
    const FP* mr = p.mre.data();
    const FP* mi = p.mim.data();
    unsigned h = 0;
    for (; h + 1 < nh; h += 2, mr += 2 * W * d, mi += 2 * W * d) {
      reg acc0 = V::zero(), acc1 = V::zero();
      for (unsigned c = 0; c < d; ++c) {
        const reg xc = V::load(x + W * c), xsc = V::load(xs + W * c);
        acc0 = V::cmul_add(acc0, xc, xsc, V::load(mr + W * c),
                           V::load(mi + W * c));
        acc1 = V::cmul_add(acc1, xc, xsc, V::load(mr + W * (d + c)),
                           V::load(mi + W * (d + c)));
      }
      V::store(amps + 2 * (base | p.high_member[h]), acc0);
      V::store(amps + 2 * (base | p.high_member[h + 1]), acc1);
    }
    if (h < nh) {  // one register: every target is a lane bit
      reg acc = V::zero();
      for (unsigned c = 0; c < d; ++c) {
        acc = V::cmul_add(acc, V::load(x + W * c), V::load(xs + W * c),
                          V::load(mr + W * c), V::load(mi + W * c));
      }
      V::store(amps + 2 * (base | p.high_member[h]), acc);
    }
  }
}

// The AVX2 kernel's arithmetic in scalar code, for states smaller than one
// register.
template <typename FP>
void fma_groups(const Operands<FP>& op, StateVector<FP>& state) {
  const std::size_t d = op.member.size();
  std::vector<cplx<FP>> tmp(d);
  cplx<FP>* amps = state.data();
  for (index_t o = 0; o < (state.size() >> op.q); ++o) {
    const index_t base = expand_bits(o, op.sorted);
    for (std::size_t k = 0; k < d; ++k) tmp[k] = amps[base | op.member[k]];
    for (std::size_t r = 0; r < d; ++r) {
      FP re = 0, im = 0;
      for (std::size_t c = 0; c < d; ++c) {
        const cplx<FP> a = tmp[c], b = op.m[r * d + c];
        re += std::fma(a.real(), b.real(), -(a.imag() * b.imag()));
        im += std::fma(a.imag(), b.real(), a.real() * b.imag());
      }
      amps[base | op.member[r]] = {re, im};
    }
  }
}

template <typename FP>
void apply_avx2(const Operands<FP>& op, const std::vector<qubit_t>& slots,
                StateVector<FP>& state, ThreadPool& pool) {
  if (state.num_qubits() < AvxPlan<FP>::kLaneBits) {
    fma_groups(op, state);
    return;
  }
  const AvxPlan<FP> p = avx_plan(op, slots);
  FP* amps = reinterpret_cast<FP*>(state.data());
  const index_t chunks = state.size() >> (AvxPlan<FP>::kLaneBits + p.qh);
  with_width(op.q, [&](auto qc) {
    constexpr unsigned Q = decltype(qc)::value;
    pool.parallel_ranges(chunks, [&](unsigned, index_t b, index_t e) {
      avx_chunks<FP, Q>(p, amps, b, e);
    });
  });
}

#endif  // QHIP_HAVE_AVX2_KERNEL

bool cpu_has_avx2_fma() {
#ifdef QHIP_HAVE_AVX2_KERNEL
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

HostKernel host_kernel() {
  static const HostKernel k =
      cpu_has_avx2_fma() ? HostKernel::kAvx2Fma : HostKernel::kScalar;
  return k;
}

const char* host_kernel_name(HostKernel k) {
  return k == HostKernel::kAvx2Fma ? "avx2+fma" : "scalar";
}

template <typename FP>
void apply_gate_routed_with(HostKernel k, const Gate& g,
                            const std::vector<qubit_t>& slots,
                            StateVector<FP>& state, ThreadPool& pool) {
  const Operands<FP> op = operands(g, slots, state);
  if (k == HostKernel::kScalar) {
    apply_scalar(op, state, pool);
    return;
  }
  check(host_kernel() == HostKernel::kAvx2Fma,
        "apply_gate_routed_with: this CPU lacks AVX2/FMA");
#ifdef QHIP_HAVE_AVX2_KERNEL
  apply_avx2(op, slots, state, pool);
#endif
}

template void apply_gate_routed_with<float>(HostKernel, const Gate&,
                                            const std::vector<qubit_t>&,
                                            StateVector<float>&, ThreadPool&);
template void apply_gate_routed_with<double>(HostKernel, const Gate&,
                                             const std::vector<qubit_t>&,
                                             StateVector<double>&, ThreadPool&);

}  // namespace qhip
