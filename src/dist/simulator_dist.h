// Distributed state-vector simulator over the message-passing layer — the
// MPI-style distribution scheme of the HPC simulators the paper's
// introduction surveys (Intel-QS, QuEST, Qiskit; De Raedt et al.'s
// original decomposition), run SPMD with one rank per state slice.
//
// Rank r of 2^d holds the 2^(n-d) amplitudes whose top d physical index
// bits equal r. Gates on local slots apply independently per rank with the
// CPU kernels; a gate touching a global slot first swaps that slot with a
// free local one — the textbook qubit-remapping / cache-blocking step
// (qHiPSTER). The layout, its eviction policy, the measurement collapse
// split and the logical-order scatter are PartitionLayout's, shared with the
// multi-GCD HIP backend and tracked identically on every rank.
//
// Slot swaps are chunked and double-buffered: while chunk k is in flight,
// chunk k+1 is packed and chunk k-1 unpacked, over persistent staging
// buffers (no per-swap allocation).
//
// The full serving contract is supported: in-circuit measurements (collapse
// via a rank-replicated outcome draw over allreduced probabilities),
// Born-rule sampling and amplitude gather on the logical-order state, and
// cooperative deadline checkpoints voted collectively so every rank aborts
// together instead of deadlocking its partner mid-exchange.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "src/base/bits.h"
#include "src/base/deadline.h"
#include "src/base/error.h"
#include "src/base/rng.h"
#include "src/core/circuit.h"
#include "src/dist/comm.h"
#include "src/obs/observable.h"
#include "src/simulator/apply.h"
#include "src/statespace/partition_layout.h"
#include "src/statespace/statevector.h"

namespace qhip::dist {

struct DistStats {
  std::uint64_t slot_swaps = 0;    // pairwise slot exchanges performed
  std::uint64_t swap_rounds = 0;   // gates whose localization communicated
  std::uint64_t swap_chunks = 0;   // staging chunks across all swaps
  std::uint64_t bytes_sent = 0;    // payload bytes shipped to partners
  std::uint64_t pack_ns = 0;       // staging-buffer pack time
  std::uint64_t exchange_ns = 0;   // isend/irecv/wait time
  std::uint64_t unpack_ns = 0;     // staging-buffer unpack time
};

template <typename FP>
class SimulatorDist {
 public:
  // Amplitudes per swap staging chunk; a swap ships its half-slice in
  // ceil(half / kSwapChunkAmps) chunks.
  static constexpr index_t kSwapChunkAmps = index_t{1} << 14;

  // Every rank constructs its own instance with the same num_qubits, which
  // with the rank count must satisfy PartitionLayout::fits. The slice reuses
  // `reuse`'s allocation (buffer pooling) when it has the local size, and is
  // allocated otherwise.
  SimulatorDist(Comm& comm, unsigned num_qubits,
                ThreadPool& pool = ThreadPool::shared(),
                StateVector<FP> reuse = {})
      : comm_(&comm),
        layout_(num_qubits, static_cast<unsigned>(comm.size())),
        pool_(&pool),
        slice_(reuse.num_qubits() == layout_.local_qubits()
                   ? std::move(reuse)
                   : StateVector<FP>(layout_.local_qubits())) {
    set_zero_state();
  }

  unsigned num_qubits() const { return layout_.num_qubits(); }
  unsigned local_qubits() const { return layout_.local_qubits(); }
  const DistStats& stats() const { return stats_; }
  const StateVector<FP>& local_slice() const { return slice_; }

  void set_zero_state() {
    std::fill(slice_.data(), slice_.data() + slice_.size(), cplx<FP>{});
    if (comm_->rank() == 0) slice_[0] = cplx<FP>{1};
    layout_.reset();
  }

  StateVector<FP> release_slice() { return std::move(slice_); }

  // Applies one (unitary) gate. Swaps evict by farthest next use per
  // `lookahead` (run() passes the circuit's).
  void apply_gate(const Gate& gate, NextUseCursor* lookahead = nullptr) {
    Gate g = normalized(gate.controls.empty() ? gate : expand_controls(gate));
    check(!g.is_measurement(),
          "SimulatorDist: measurement gates go through run()/measure()");
    check(g.num_targets() <= local_qubits(),
          "SimulatorDist: gate wider than the local qubit count");
    const unsigned swaps = layout_.localize(
        g.qubits, lookahead, [this](const auto& sw) { swap_slots(sw); });
    if (swaps > 0) ++stats_.swap_rounds;
    // Route each logical target to its physical slot WITHOUT re-normalizing
    // the gate onto slot order: the matrix stays in the logical basis, so
    // the accumulation order (and the result, bit for bit) matches the
    // single-node backends no matter how the layout is permuted.
    std::vector<qubit_t> slots(g.qubits.size());
    for (std::size_t j = 0; j < slots.size(); ++j) {
      slots[j] = layout_.slot_of(g.qubits[j]);
    }
    apply_gate_routed_inplace(g, slots, slice_, *pool_);
  }

  // Runs the whole circuit. Measurement gate k draws with Philox stream
  // (seed ^ GOLDEN * k, 0x3ea5) — the same formula as SimulatorCPU, so
  // outcomes agree with the cpu backend for the same seed. The deadline is
  // voted on collectively every few gates: if any rank has expired, every
  // rank throws CodedError(kDeadlineExceeded) at the same checkpoint (a
  // lone local throw would leave its swap partner blocked in recv forever).
  void run(const Circuit& c, std::uint64_t seed = 0,
           std::vector<index_t>* measurements = nullptr,
           const Deadline& deadline = {}) {
    check(c.num_qubits == num_qubits(), "SimulatorDist::run: qubit mismatch");
    NextUseCursor lookahead(c);
    std::uint64_t meas_idx = 0;
    unsigned since_vote = 0;
    for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
      lookahead.seek(i);
      if (deadline.active() && ++since_vote >= kDeadlineStride) {
        since_vote = 0;
        vote_deadline(deadline);
      }
      const Gate& g = c.gates[i];
      if (g.is_measurement()) {
        const index_t outcome =
            measure(g.qubits, seed ^ (0x9E3779B97F4A7C15 * ++meas_idx));
        if (measurements) measurements->push_back(outcome);
      } else {
        apply_gate(g, &lookahead);
      }
    }
    if (deadline.active()) vote_deadline(deadline);
  }

  double norm2() {
    return comm_->allreduce_sum(statespace::norm2(slice_, *pool_));
  }

  // Measures `qubits` (bit j of the outcome = qubits[j]), collapses and
  // renormalizes the distributed state. Collective: every rank draws the
  // same outcome from the same allreduced distribution and the same Philox
  // stream, mirroring statespace::measure's draw exactly.
  index_t measure(const std::vector<qubit_t>& qubits, std::uint64_t seed) {
    check(!qubits.empty() && qubits.size() <= 30, "measure: bad qubit list");

    // Outcome bits whose physical slot is global are fixed by the rank id;
    // local slots contribute per amplitude.
    index_t fixed = 0;
    std::vector<std::pair<unsigned, unsigned>> lbits;  // (outcome bit, slot)
    const int rank = comm_->rank();
    const unsigned local = local_qubits();
    for (unsigned j = 0; j < qubits.size(); ++j) {
      const unsigned s = layout_.slot_of(qubits[j]);
      if (s >= local) {
        if ((rank >> (s - local)) & 1) fixed |= index_t{1} << j;
      } else {
        lbits.emplace_back(j, s);
      }
    }

    const std::size_t no = std::size_t{1} << qubits.size();
    std::vector<double> probs(no, 0.0);
    for (index_t i = 0; i < slice_.size(); ++i) {
      index_t o = fixed;
      for (const auto& [j, s] : lbits) o |= ((i >> s) & 1) << j;
      probs[o] += std::norm(slice_[i]);
    }
    probs = comm_->allreduce_sum(probs);

    Philox rng(seed, /*stream=*/0x3ea5);
    const double r = rng.uniform();
    double csum = 0;
    index_t outcome = no - 1;
    for (std::size_t o = 0; o < no; ++o) {
      csum += probs[o];
      if (r < csum) {
        outcome = o;
        break;
      }
    }

    const auto split = layout_.collapse_split(rank, qubits, outcome);
    if (!split.survives) {
      std::fill(slice_.data(), slice_.data() + slice_.size(), cplx<FP>{});
    } else {
      pool_->parallel_for(slice_.size(), [&](index_t i) {
        if ((i & split.local_mask) != split.local_value) slice_[i] = cplx<FP>{};
      });
    }

    const double n2 = norm2();
    check(n2 > 0, "measure: zero state");
    const FP inv = static_cast<FP>(1.0 / std::sqrt(n2));
    pool_->parallel_for(slice_.size(), [&](index_t i) { slice_[i] *= inv; });
    return outcome;
  }

  // Amplitudes at logical basis-state indices. Collective; every rank
  // returns the same values (owners contribute, zeros elsewhere, rank-
  // ordered sum — exact, since x + 0.0 == x).
  std::vector<cplx64> amplitudes(const std::vector<index_t>& indices) {
    std::vector<double> flat(indices.size() * 2, 0.0);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      check(indices[k] < pow2(num_qubits()), "amplitudes: index out of range");
      const PartitionLayout::Location at = layout_.locate(indices[k]);
      if (static_cast<int>(at.part) == comm_->rank()) {
        const cplx<FP> a = slice_[at.index];
        flat[2 * k] = a.real();
        flat[2 * k + 1] = a.imag();
      }
    }
    flat = comm_->allreduce_sum(flat);
    std::vector<cplx64> out(indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      out[k] = {flat[2 * k], flat[2 * k + 1]};
    }
    return out;
  }

  // <psi| P |psi> with the distributed state: the string's qubits are
  // localized first (swaps), then each rank reduces its slice.
  cplx64 expectation(const obs::PauliString& p) {
    p.validate(num_qubits());
    std::vector<qubit_t> qubits;
    for (const auto& t : p.terms) qubits.push_back(t.qubit);
    layout_.localize(qubits, nullptr,
                     [this](const auto& sw) { swap_slots(sw); });
    obs::PauliString phys = p;
    for (auto& t : phys.terms) t.qubit = layout_.slot_of(t.qubit);
    // Local reduction WITHOUT the coefficient/i^Y factors, which must be
    // applied once globally: compute with unit coefficient, then rescale.
    obs::PauliString unit = phys;
    unit.coefficient = 1.0;
    const cplx64 local = obs::expectation(unit, slice_, *pool_);
    static constexpr cplx64 kIPowInv[4] = {{1, 0}, {0, -1}, {-1, 0}, {0, 1}};
    // obs::expectation already multiplied by i^{#Y}; fold it back out, sum
    // across ranks, then apply the full prefactor once.
    const cplx64 raw = local * kIPowInv[unit.num_y() % 4];
    const cplx64 total = comm_->allreduce_sum(raw);
    static constexpr cplx64 kIPow[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    return p.coefficient * kIPow[p.num_y() % 4] * total;
  }

  cplx64 expectation(const obs::Observable& o) {
    cplx64 total{};
    for (const auto& p : o.strings) total += expectation(p);
    return total;
  }

  // Gathers the full state (logical qubit order) on rank 0, into `reuse`'s
  // allocation when it has the full size; other ranks receive an empty
  // state. Slices travel in kSwapChunkAmps chunks through the persistent
  // receive buffer, scattered as they arrive. All ranks must call.
  StateVector<FP> gather(StateVector<FP> reuse = {}) {
    const index_t chunk = std::min(kSwapChunkAmps, slice_.size());
    if (comm_->rank() != 0) {
      for (index_t at = 0; at < slice_.size(); at += chunk) {
        comm_->send(0, kGatherTag, slice_.data() + at, chunk * sizeof(cplx<FP>));
      }
      comm_->barrier();
      StateVector<FP> empty(1);
      return empty;
    }
    StateVector<FP> out = reuse.num_qubits() == num_qubits()
                              ? std::move(reuse)
                              : StateVector<FP>(num_qubits());
    layout_.scatter(0, slice_.data(), out.data());
    std::vector<cplx<FP>>& part = rbuf_[0];
    if (part.size() < chunk) part.resize(chunk);
    for (int r = 1; r < comm_->size(); ++r) {
      for (index_t at = 0; at < slice_.size(); at += chunk) {
        comm_->recv(r, kGatherTag, part.data(), chunk * sizeof(cplx<FP>));
        layout_.scatter_range(r, at, chunk, part.data(), out.data());
      }
    }
    comm_->barrier();
    return out;
  }

 private:
  // Fixed message tags. Swaps reuse one tag: per-(src, dst, tag) FIFO
  // matching already keeps concurrent and successive swaps ordered, and a
  // per-swap incrementing tag overflows the 20-bit tag field after enough
  // swaps (and collided with the gather tag after 8001).
  static constexpr int kSwapTag = 1;
  static constexpr int kGatherTag = 2;
  static constexpr unsigned kDeadlineStride = 16;

  void vote_deadline(const Deadline& deadline) {
    const double expired = deadline.expired() ? 1.0 : 0.0;
    if (comm_->allreduce_sum(expired) > 0) {
      throw CodedError(ErrorCode::kDeadlineExceeded,
                       "deadline exceeded in SimulatorDist::run (collective "
                       "checkpoint)");
    }
  }

  // Exchange amp(g=0, l=1) <-> amp(g=1, l=0) with the partner rank. The
  // half-slice is shipped in chunks over persistent double staging buffers:
  // chunk k's receive is posted, k is packed and sent, then chunk k-1
  // (whose buffers are now free) is waited on and unpacked — pack, wire,
  // and unpack overlap across chunks.
  void swap_slots(const PartitionLayout::SlotSwap& sw) {
    // Adds the wall time of fn() to `acc`.
    const auto timed = [](std::uint64_t& acc, auto&& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      acc += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    };

    const unsigned lslot = sw.local_slot;
    const unsigned gbit = sw.global_slot - local_qubits();
    const int rank = comm_->rank();
    const int partner = rank ^ (1 << gbit);
    const bool low_side = ((rank >> gbit) & 1) == 0;
    const index_t bit = index_t{1} << lslot;
    // Which local-bit half to ship: the low rank of the pair owns l=0 for
    // both slots after the swap, so it ships its l=1 half and vice versa.
    const index_t keep = low_side ? bit : 0;
    const index_t half = slice_.size() >> 1;

    const auto idx_of = [&](index_t t) {
      return ((t >> lslot) << (lslot + 1)) | (t & (bit - 1)) | keep;
    };
    // Visits t in [base, base + cnt) as runs whose idx_of is contiguous as
    // well, calling fn(t - base, idx_of(t), run length): a run ends where t
    // crosses a multiple of `bit`, so a high local slot moves whole blocks.
    const auto runs = [&](index_t base, index_t cnt, auto&& fn) {
      for (index_t t = base, end = base + cnt; t < end;) {
        const index_t len = std::min(bit - (t & (bit - 1)), end - t);
        fn(t - base, idx_of(t), len);
        t += len;
      }
    };

    const index_t chunk = std::min(kSwapChunkAmps, half);
    const index_t nchunks = (half + chunk - 1) / chunk;
    for (auto& b : sbuf_) b.resize(chunk);  // no-op after the first swap
    for (auto& b : rbuf_) b.resize(chunk);
    const auto count_of = [&](index_t k) {
      return std::min(chunk, half - k * chunk);
    };

    // Iteration k posts chunk k's receive, packs and sends chunk k, then
    // waits for and unpacks chunk k-1. rbuf_[k % 2] was last used by chunk
    // k-2, unpacked at iteration k-1, so it is free to receive into;
    // sbuf_[k % 2] likewise (isend is eager-buffered, complete at return).
    Comm::Request rreq[2];
    for (index_t k = 0; k <= nchunks; ++k) {
      if (k < nchunks) {
        const index_t base = k * chunk, cnt = count_of(k);
        std::vector<cplx<FP>>& out = sbuf_[k & 1];
        timed(stats_.exchange_ns, [&] {
          rreq[k & 1] = comm_->irecv(partner, kSwapTag, rbuf_[k & 1].data(),
                                     cnt * sizeof(cplx<FP>));
        });
        timed(stats_.pack_ns, [&] {
          runs(base, cnt, [&](index_t off, index_t at, index_t len) {
            std::copy_n(slice_.data() + at, len, out.data() + off);
          });
        });
        timed(stats_.exchange_ns, [&] {
          comm_->isend(partner, kSwapTag, out.data(), cnt * sizeof(cplx<FP>));
        });
      }
      if (k > 0) {
        const index_t j = k - 1, base = j * chunk, cnt = count_of(j);
        const std::vector<cplx<FP>>& in = rbuf_[j & 1];
        timed(stats_.exchange_ns, [&] { comm_->wait(rreq[j & 1]); });
        timed(stats_.unpack_ns, [&] {
          runs(base, cnt, [&](index_t off, index_t at, index_t len) {
            std::copy_n(in.data() + off, len, slice_.data() + at);
          });
        });
      }
    }
    stats_.swap_chunks += static_cast<std::uint64_t>(nchunks);
    stats_.bytes_sent += half * sizeof(cplx<FP>);
    ++stats_.slot_swaps;
  }

  Comm* comm_;
  PartitionLayout layout_;
  ThreadPool* pool_;
  StateVector<FP> slice_;
  std::vector<cplx<FP>> sbuf_[2], rbuf_[2];  // persistent swap staging
  DistStats stats_;
};

}  // namespace qhip::dist
