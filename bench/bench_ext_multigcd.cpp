// Extension — multi-GCD scaling (the paper's §7 future work, implemented
// in src/hipsim/multi_gcd.h).
//
// Two parts:
//  1. Real measurements on the emulator: communication volume (slot swaps,
//     peer bytes) of a fused RQC across 2 and 4 GCDs at several fusion
//     settings. Fusion is also a *communication* optimization: wider
//     fused gates mean fewer global-qubit touches per pass. Swaps are shown
//     for run(), which evicts by farthest next use over the circuit, and
//     for gate-by-gate apply_gate() without lookahead.
//  2. A projected 31-qubit run (one qubit beyond a single 128 GB GCD at
//     double precision): per-GCD local time from the calibrated model plus
//     peer traffic over the MI250X Infinity Fabric (50 GB/s per direction
//     between the two GCDs of a package).
#include <cstdio>

#include "bench/figures_common.h"
#include "src/hipsim/multi_gcd.h"

using namespace qhip;
using namespace qhip::bench;
using perfmodel::Backend;

int main() {
  std::printf("Extension: multi-GCD HIP backend (paper SS7 future work)\n\n");
  std::printf("Part 1 — measured communication on the emulator "
              "(12-qubit RQC, real runs)\n");
  std::printf("%-8s %-10s %12s %16s %14s %18s\n", "GCDs", "max_fused",
              "swaps run()", "swaps per-gate", "peer [MiB]", "gate launches");

  rqc::RqcOptions opt;
  opt.rows = 3;
  opt.cols = 4;
  opt.depth = 10;
  const Circuit circuit = rqc::generate_rqc(opt);

  for (unsigned gcds : {2u, 4u}) {
    for (unsigned f : {2u, 4u}) {
      const Circuit fused = fuse_circuit(circuit, {f}).circuit;
      hipsim::MultiGcdSimulator<float> sim(circuit.num_qubits, gcds);
      sim.run(fused);
      hipsim::MultiGcdSimulator<float> greedy(circuit.num_qubits, gcds);
      for (const Gate& g : fused.gates) greedy.apply_gate(g);
      const auto& st = sim.stats();
      std::printf("%-8u %-10u %12llu %16llu %14.2f %18llu\n", gcds, f,
                  static_cast<unsigned long long>(st.slot_swaps),
                  static_cast<unsigned long long>(greedy.stats().slot_swaps),
                  static_cast<double>(st.peer_bytes) / (1 << 20),
                  static_cast<unsigned long long>(st.local_gate_launches));
    }
  }

  std::printf("\nPart 2 — projected 31-qubit RQC on 2 GCDs (one MI250X "
              "package), single precision\n");
  // Workload: 31-qubit RQC is not generated (31 is prime vs the grid); use
  // the 30-qubit fused workload scaled by 2x amplitudes as the per-gate
  // cost basis, which is exact for the bandwidth-bound regime.
  const Sweep s = build_sweep();
  constexpr double kFabricGBs = 50.0;  // GCD<->GCD Infinity Fabric, one way
  std::printf("%-10s %16s %16s %16s\n", "max_fused", "local [s]",
              "comm [s]", "total [s]");
  for (unsigned f = kFusedMin; f <= kFusedMax; ++f) {
    // Each GCD holds 2^30 amplitudes: local time equals the n=30 single-GCD
    // time; both GCDs run concurrently.
    const double local = model_time(s, Backend::kHipMi250x, f);
    // Global-qubit swaps: measured swap count per gate from the emulator
    // scales with the gate stream; approximate one swap per 8 fused gates
    // (the 12-qubit measurement above), each moving half the per-GCD state
    // both ways.
    const double swaps = static_cast<double>(s.stats.at(f).num_gates) / 8.0;
    const double bytes_per_swap = 2.0 * (std::pow(2.0, 30) / 2) * 8.0;
    const double comm = swaps * bytes_per_swap / (kFabricGBs * 1e9);
    std::printf("%-10u %16.3f %16.3f %16.3f\n", f, local, comm, local + comm);
  }
  std::printf("\n(31 qubits in single precision needs 16 GiB of amplitudes —"
              " fits two 128 GB GCDs\nwith room for staging; a single GCD "
              "also fits it, but 33+ qubits would not.)\n");
  return 0;
}
