// Multi-GCD (multi-GPU) HIP backend — the paper's stated future work:
// "the multi-GPU porting for the HIP backend is an important goal for
// future work, offering the prospect of simulating ... even larger qubit
// counts" (§7). Each MI250X package already exposes two GCDs as separate
// devices, so this is the natural next step for the port.
//
// Design: the cache-blocking distribution of Doi & Horii (cited by the
// paper's related work) adapted to 2^d virtual GCDs.
//
//  * The state vector is split by the top d physical index bits: GCD k
//    holds the 2^(n-d) amplitudes whose top bits equal k ("global" slots);
//    the low n-d bits are "local" slots addressable inside one GCD.
//  * The logical->physical qubit layout, the eviction policy (farthest
//    next use over run()'s circuit), the measurement collapse split and the
//    logical-order scatter are PartitionLayout's, shared with the dist:N
//    backend. Gates whose targets are all local run independently on every
//    GCD with the single-device ApplyGateH/L kernels — no communication.
//  * A gate touching a global slot first swaps that slot with a local slot
//    the layout picks: for each GCD pair differing in the global bit, the
//    halves with opposite local-bit values are exchanged (pack kernel ->
//    peer copy -> unpack kernel; the emulator stages peer copies through
//    the host and records them as hipMemcpyPeer traffic).
//  * Sampling draws per-GCD probability masses, splits the sorted uniforms
//    across GCDs, resolves locally, and maps physical indices back through
//    the layout.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "src/base/bits.h"
#include "src/base/deadline.h"
#include "src/base/error.h"
#include "src/core/circuit.h"
#include "src/hipsim/simulator_hip.h"
#include "src/hipsim/state_space_hip_kernels.h"
#include "src/hipsim/vectorspace_hip.h"
#include "src/statespace/partition_layout.h"

namespace qhip::hipsim {

struct MultiGcdStats {
  std::uint64_t slot_swaps = 0;       // global<->local qubit swaps
  std::uint64_t peer_bytes = 0;       // inter-GCD traffic
  std::uint64_t local_gate_launches = 0;
};

// Packs the elements of `amps` whose local bit `bit_pos` equals `bit_value`
// into the contiguous buffer `out` (size/2 elements), ordered by the
// remaining bits.
template <typename FP>
struct PackHalfKernel {
  const cplx<FP>* amps = nullptr;
  cplx<FP>* out = nullptr;
  index_t half = 0;  // size / 2
  unsigned bit_pos = 0;
  unsigned bit_value = 0;

  void operator()(vgpu::KernelCtx& ctx) const {
    const index_t stride = static_cast<index_t>(ctx.grid_dim()) * ctx.block_dim();
    const index_t bit = index_t{1} << bit_pos;
    for (index_t t = ctx.global_idx(); t < half; t += stride) {
      const index_t lo = t & (bit - 1);
      const index_t src = ((t >> bit_pos) << (bit_pos + 1)) | lo |
                          (bit_value ? bit : 0);
      out[t] = amps[src];
    }
  }
};

template <typename FP>
struct UnpackHalfKernel {
  cplx<FP>* amps = nullptr;
  const cplx<FP>* in = nullptr;
  index_t half = 0;
  unsigned bit_pos = 0;
  unsigned bit_value = 0;

  void operator()(vgpu::KernelCtx& ctx) const {
    const index_t stride = static_cast<index_t>(ctx.grid_dim()) * ctx.block_dim();
    const index_t bit = index_t{1} << bit_pos;
    for (index_t t = ctx.global_idx(); t < half; t += stride) {
      const index_t lo = t & (bit - 1);
      const index_t dst = ((t >> bit_pos) << (bit_pos + 1)) | lo |
                          (bit_value ? bit : 0);
      amps[dst] = in[t];
    }
  }
};

template <typename FP>
class MultiGcdSimulator {
 public:
  // `num_qubits` and `num_gcds` must satisfy PartitionLayout::fits; each
  // GCD gets its own virtual device with `props` (MI250X GCD by default). A
  // non-null `faults` plan is shared by all GCDs, so occurrence counters
  // ("the Nth allocation") are global across the job rather than per device.
  MultiGcdSimulator(unsigned num_qubits, unsigned num_gcds,
                    vgpu::DeviceProps props = vgpu::mi250x_gcd(),
                    Tracer* tracer = nullptr,
                    std::shared_ptr<vgpu::FaultPlan> faults = nullptr)
      : layout_(num_qubits, num_gcds) {
    for (unsigned k = 0; k < num_gcds; ++k) {
      devices_.push_back(std::make_unique<vgpu::Device>(props, tracer));
      if (faults) devices_.back()->set_fault_plan(faults);
      sims_.push_back(std::make_unique<SimulatorHIP<FP>>(*devices_.back()));
      states_.push_back(
          std::make_unique<DeviceStateVector<FP>>(*devices_.back(),
                                                  layout_.local_qubits()));
      // Per-GCD exchange machinery: a stream for the pack -> peer copy ->
      // unpack pipeline, a persistent staging buffer (half the local state),
      // and events ordering the exchange against the gate kernels.
      xstreams_.push_back(devices_.back()->create_stream());
      ev_gates_.push_back(devices_.back()->create_event());
      ev_exchanged_.push_back(devices_.back()->create_event());
      xbufs_.push_back(devices_.back()->template malloc_n<cplx<FP>>(
          states_.back()->size() >> 1));
    }
    set_zero_state();
  }

  ~MultiGcdSimulator() {
    // free() joins each device's streams, so no exchange op can be pending.
    for (unsigned k = 0; k < num_gcds(); ++k) devices_[k]->free(xbufs_[k]);
  }

  unsigned num_qubits() const { return layout_.num_qubits(); }
  unsigned num_gcds() const { return layout_.partitions(); }
  // hipDeviceSynchronize on every GCD: joins all pending gate and exchange
  // work (needed before reading wall-clock timers).
  void synchronize() {
    for (auto& d : devices_) d->synchronize();
  }
  const MultiGcdStats& stats() const { return stats_; }
  vgpu::Device& device(unsigned k) { return *devices_[k]; }

  void set_zero_state() {
    for (unsigned k = 0; k < num_gcds(); ++k) {
      sims_[k]->state_space().fill(*states_[k], cplx<FP>{});
    }
    sims_[0]->state_space().set_ampl(*states_[0], 0, cplx<FP>{1});
    layout_.reset();
  }

  // Applies one (unitary) gate; controlled gates are folded first. Swaps
  // evict by farthest next use per `lookahead` (run() passes the circuit's).
  void apply_gate(const Gate& gate, NextUseCursor* lookahead = nullptr) {
    Gate g = normalized(gate.controls.empty() ? gate : expand_controls(gate));
    check(!g.is_measurement(), "MultiGcdSimulator: measurement via measure()");
    check(g.num_targets() <= layout_.local_qubits(),
          "MultiGcdSimulator: gate wider than the local qubit count");

    // Localize every target; the gate's own qubits are never evicted.
    layout_.localize(g.qubits, lookahead,
                     [this](const auto& sw) { swap_slots(sw); });

    // Remap logical targets to physical slots (all local now).
    Gate phys = g;
    for (auto& q : phys.qubits) q = layout_.slot_of(q);
    phys = normalized(phys);

    for (unsigned k = 0; k < num_gcds(); ++k) {
      sims_[k]->apply_gate(phys, *states_[k]);
      ++stats_.local_gate_launches;
    }
  }

  // `deadline` is checked between gates (cooperative cancellation; a gate's
  // local launches and slot exchanges are never interrupted mid-flight).
  void run(const Circuit& c, std::uint64_t seed = 0,
           std::vector<index_t>* measurements = nullptr,
           const Deadline& deadline = {}) {
    check(c.num_qubits == num_qubits(), "MultiGcdSimulator::run: qubit mismatch");
    NextUseCursor lookahead(c);
    std::uint64_t meas_idx = 0;
    for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
      deadline.check("MultiGcdSimulator::run");
      lookahead.seek(i);
      const Gate& g = c.gates[i];
      if (g.is_measurement()) {
        const index_t outcome =
            measure(g.qubits, seed ^ (0x9E3779B97F4A7C15 * ++meas_idx));
        if (measurements) measurements->push_back(outcome);
      } else {
        apply_gate(g, &lookahead);
      }
    }
  }

  double norm2() {
    double total = 0;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      total += sims_[k]->state_space().norm2(*states_[k]);
    }
    return total;
  }

  // Gathers the full state in *logical* qubit order.
  StateVector<FP> to_host() const {
    StateVector<FP> out(num_qubits());
    StateVector<FP> part(layout_.local_qubits());
    for (unsigned k = 0; k < num_gcds(); ++k) {
      states_[k]->download(part);
      layout_.scatter(k, part.data(), out.data());
    }
    return out;
  }

  // Maps ascending unit positions — fractions of the total squared mass —
  // to logical sample indices; the sampling core behind sample(). Public as
  // a testable seam: positions at or beyond 1.0 fall past every cumulative
  // boundary and exercise the rounding tail below, which uniform draws in
  // [0, 1) almost never reach through sample() itself.
  std::vector<index_t> resolve_sorted_positions(std::vector<double> rs,
                                                std::uint64_t seed) {
    // Per-GCD mass. The split loop accumulates csum in the same order, so
    // the final boundary is bit-identical to `total`.
    std::vector<double> mass(num_gcds());
    double total = 0;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      mass[k] = sims_[k]->state_space().norm2(*states_[k]);
      total += mass[k];
    }
    for (auto& r : rs) r *= total;

    std::vector<index_t> out;
    out.reserve(rs.size());
    double csum = 0;
    std::size_t k0 = 0;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      std::size_t k1 = k0;
      while (k1 < rs.size() && rs[k1] < csum + mass[k]) ++k1;
      if (k1 > k0) {
        // Draw (k1 - k0) samples from GCD k's local distribution.
        const auto local = sims_[k]->state_space().sample(
            *states_[k], k1 - k0, seed ^ (0x9E37ull * (k + 1)));
        for (index_t li : local) out.push_back(layout_.logical_index(k, li));
      }
      csum += mass[k];
      k0 = k1;
    }
    if (out.size() < rs.size()) {
      // Tail from rounding: positions past every boundary. This used to
      // draw from the *last* GCD unconditionally — zero-mass after a
      // measurement collapse pins its distribution to |0...0>, yielding
      // impossible outcomes — and reused seed ^ 0x777 for every draw, so
      // all tail samples were copies of one value. Draw from the
      // maximum-mass GCD and advance the seed per draw instead.
      unsigned kmax = 0;
      for (unsigned k = 1; k < num_gcds(); ++k) {
        if (mass[k] > mass[kmax]) kmax = k;
      }
      std::uint64_t tail_seed = seed ^ 0x777;
      while (out.size() < rs.size()) {
        const auto extra =
            sims_[kmax]->state_space().sample(*states_[kmax], 1, tail_seed++);
        out.push_back(layout_.logical_index(kmax, extra[0]));
      }
    }
    return out;
  }

  // Born sampling across GCDs; returned indices are logical.
  std::vector<index_t> sample(std::size_t num_samples, std::uint64_t seed) {
    if (num_samples == 0) return {};
    // Sorted uniforms in [0, 1), resolved against the per-GCD masses.
    std::vector<double> rs(num_samples);
    Philox rng(seed, /*stream=*/0x6a17);
    for (auto& r : rs) r = rng.uniform();
    std::sort(rs.begin(), rs.end());
    std::vector<index_t> out = resolve_sorted_positions(std::move(rs), seed);
    // Deterministic de-sort.
    Philox shuf(seed, /*stream=*/0x6a18);
    for (std::size_t i = out.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(shuf.uniform() * i);
      std::swap(out[i - 1], out[j]);
    }
    return out;
  }

  // Measures logical `qubits` (collapse + renormalize); returns outcome.
  index_t measure(const std::vector<qubit_t>& qubits, std::uint64_t seed) {
    check(!qubits.empty(), "measure: empty qubit list");
    const std::vector<index_t> one = sample(1, seed);
    const index_t outcome = gather_bits(one[0], qubits);

    for (unsigned k = 0; k < num_gcds(); ++k) {
      const auto c = layout_.collapse_split(k, qubits, outcome);
      if (!c.survives) {
        sims_[k]->state_space().fill(*states_[k], cplx<FP>{});
      } else if (c.local_mask != 0) {
        sims_[k]->state_space().collapse(*states_[k], c.local_mask,
                                         c.local_value);
      }
    }
    // Renormalize globally.
    const double n2 = norm2();
    check(n2 > 0, "measure: zero state after collapse");
    const FP inv = static_cast<FP>(1.0 / std::sqrt(n2));
    for (unsigned k = 0; k < num_gcds(); ++k) {
      sims_[k]->state_space().scale(*states_[k], inv);
    }
    return outcome;
  }

 private:
  // Exchanges a global slot with a local slot across all GCD pairs. Three
  // asynchronous phases on the per-GCD exchange streams: (1) behind the
  // pending gate kernels, pack and stage down to the host on every GCD
  // concurrently; (2) join the exchange streams — the host-staged peer
  // barrier; (3) upload the crossed halves and unpack, handing ordering back
  // to the compute streams via stream_wait_event. Devices of a pair (and
  // all pairs) overlap their pack/copy work.
  void swap_slots(const PartitionLayout::SlotSwap& sw) {
    const unsigned lslot = sw.local_slot;
    const unsigned gbit = sw.global_slot - layout_.local_qubits();
    const index_t half = states_[0]->size() >> 1;
    const std::size_t bytes = half * sizeof(cplx<FP>);

    struct PairStage {
      unsigned a, b;  // low / high side of the pair
      std::vector<cplx<FP>> host_a, host_b;
    };
    std::vector<PairStage> pairs;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      if ((k >> gbit) & 1) continue;  // k is the low side of the pair
      pairs.push_back({k, k | (1u << gbit), std::vector<cplx<FP>>(half),
                       std::vector<cplx<FP>>(half)});
    }

    // Phase 1: pack A's half with local bit = 1 and B's half with local
    // bit = 0, then stage both down to the host, all asynchronously.
    for (auto& p : pairs) {
      pack_to_host(p.a, lslot, 1, p.host_a.data(), bytes);
      pack_to_host(p.b, lslot, 0, p.host_b.data(), bytes);
    }
    // Phase 2: the staged halves must be on the host before crossing over.
    for (auto& p : pairs) {
      devices_[p.a]->stream_synchronize(xstreams_[p.a]);
      devices_[p.b]->stream_synchronize(xstreams_[p.b]);
    }
    // Phase 3: crossed upload + unpack (recorded as hipMemcpyPeer traffic).
    for (auto& p : pairs) {
      unpack_from_host(p.a, lslot, 1, p.host_b.data(), bytes);
      unpack_from_host(p.b, lslot, 0, p.host_a.data(), bytes);
      stats_.peer_bytes += 2 * bytes;
    }
    ++stats_.slot_swaps;
  }

  // Pack half of GCD k's state into its exchange buffer and stage it to
  // `host`, on the exchange stream, ordered after pending gate kernels.
  void pack_to_host(unsigned k, unsigned bit_pos, unsigned bit_value,
                    cplx<FP>* host, std::size_t bytes) {
    devices_[k]->record_event(ev_gates_[k], sims_[k]->compute_stream());
    devices_[k]->stream_wait_event(xstreams_[k], ev_gates_[k]);
    const index_t half = states_[k]->size() >> 1;
    PackHalfKernel<FP> pk{states_[k]->device_data(), xbufs_[k], half, bit_pos,
                          bit_value};
    devices_[k]->launch("PackHalf_Kernel", grid_for(half, xstreams_[k]), pk);
    devices_[k]->memcpy_d2h_async(host, xbufs_[k], bytes, xstreams_[k]);
  }

  // Upload the peer's half into GCD k's exchange buffer and scatter it into
  // the state; subsequent gate kernels wait for the unpack.
  void unpack_from_host(unsigned k, unsigned bit_pos, unsigned bit_value,
                        const cplx<FP>* host, std::size_t bytes) {
    devices_[k]->memcpy_h2d_async(xbufs_[k], host, bytes, xstreams_[k]);
    const index_t half = states_[k]->size() >> 1;
    UnpackHalfKernel<FP> uk{states_[k]->device_data(), xbufs_[k], half, bit_pos,
                            bit_value};
    devices_[k]->launch("UnpackHalf_Kernel", grid_for(half, xstreams_[k]), uk);
    devices_[k]->record_event(ev_exchanged_[k], xstreams_[k]);
    devices_[k]->stream_wait_event(sims_[k]->compute_stream(),
                                   ev_exchanged_[k]);
  }

  static vgpu::LaunchConfig grid_for(index_t size, vgpu::Stream s = {}) {
    const index_t blocks = (size + kReduceBlockDim - 1) / kReduceBlockDim;
    return {static_cast<unsigned>(std::min<index_t>(std::max<index_t>(blocks, 1), 4096)),
            kReduceBlockDim, 0, false, s};
  }

  PartitionLayout layout_;
  std::vector<std::unique_ptr<vgpu::Device>> devices_;
  std::vector<std::unique_ptr<SimulatorHIP<FP>>> sims_;
  std::vector<std::unique_ptr<DeviceStateVector<FP>>> states_;
  std::vector<vgpu::Stream> xstreams_;   // per-GCD exchange stream
  std::vector<vgpu::Event> ev_gates_;    // gate kernels drained, per GCD
  std::vector<vgpu::Event> ev_exchanged_;  // exchange landed, per GCD
  std::vector<cplx<FP>*> xbufs_;         // persistent pack/unpack staging
  MultiGcdStats stats_;
};

}  // namespace qhip::hipsim
