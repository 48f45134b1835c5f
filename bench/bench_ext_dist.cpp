// Extension — message-passing distribution (src/dist), the MPI-style
// scaling path the paper's introduction places qsim among (Intel-QS,
// QuEST, Qiskit). Three real SPMD studies on this host:
//
//   1. scaling: communication volume and swap counts of a fused RQC
//      across 2/4/8 ranks, and the fusion knob's second job as a
//      *communication* optimizer — wider fused gates touch distributed
//      qubits less often per unit of work;
//   2. swap cost: per-swap wall time of the chunked double-buffered
//      exchange, with the pack / exchange / unpack phase breakdown;
//   3. serving: the same distribution running as a first-class engine
//      backend (dist:N) with Born-rule sampling and transfer counters.
#include <chrono>
#include <cstdio>

#include "src/core/gates.h"
#include "src/dist/simulator_dist.h"
#include "src/engine/engine.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"

using namespace qhip;

namespace {

// Applies `swaps` H gates alternating between the two highest logical
// qubits; with default layout both live in global slots, so every gate
// costs exactly one slot swap. Returns wall seconds for the whole run.
double time_swaps(int ranks, unsigned n, int swaps, dist::DistStats* stats) {
  double seconds = 0;
  dist::run_spmd(ranks, [&](dist::Comm& comm) {
    ThreadPool pool(1);
    dist::SimulatorDist<float> sim(comm, n, pool);
    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < swaps; ++k) {
      sim.apply_gate(gates::h(0, n - 1 - static_cast<unsigned>(k & 1)));
    }
    comm.barrier();
    const auto t1 = std::chrono::steady_clock::now();
    if (comm.rank() == 0) {
      seconds = std::chrono::duration<double>(t1 - t0).count();
      *stats = sim.stats();
    }
  });
  return seconds;
}

}  // namespace

int main() {
  std::printf("Extension: MPI-style distributed state vector (real SPMD runs)\n\n");
  rqc::RqcOptions opt;
  opt.rows = 3;
  opt.cols = 4;  // 12 qubits
  opt.depth = 10;
  const Circuit circuit = rqc::generate_rqc(opt);
  std::printf("workload: %s\n\n", rqc::describe(circuit).c_str());

  std::printf("%-8s %-10s %12s %16s %18s %14s\n", "ranks", "max_fused",
              "swaps", "sent/rank [MiB]", "amps/rank", "norm check");
  for (int ranks : {2, 4, 8}) {
    for (unsigned f : {2u, 4u}) {
      const Circuit fused = fuse_circuit(circuit, {f}).circuit;
      dist::run_spmd(ranks, [&](dist::Comm& comm) {
        ThreadPool pool(1);
        dist::SimulatorDist<float> sim(comm, circuit.num_qubits, pool);
        sim.run(fused);
        const double n2 = sim.norm2();
        if (comm.rank() == 0) {
          std::printf("%-8d %-10u %12llu %16.3f %18llu %14.6f\n", ranks, f,
                      static_cast<unsigned long long>(sim.stats().slot_swaps),
                      static_cast<double>(sim.stats().bytes_sent) / (1 << 20),
                      static_cast<unsigned long long>(sim.local_slice().size()),
                      n2);
        }
      });
    }
  }

  std::printf("\nEach swap ships half of every rank's slice once in each\n"
              "direction; doubling the rank count halves the slice but adds\n"
              "a distributed qubit, so volume per rank shrinks while swap\n"
              "count grows — the classic distributed state-vector trade.\n");

  // --- swap cost: chunked double-buffered exchange ---------------------
  const unsigned n = 22;
  const int ranks = 4;
  const int swaps = 32;
  std::printf("\nSwap cost (n=%u, ranks=%d, %d swaps, 1 gate per swap):\n\n",
              n, ranks, swaps);
  std::printf("%12s %12s %12s %12s %12s\n", "ms/swap", "chunks", "pack ms",
              "exchange ms", "unpack ms");
  dist::DistStats s{};
  // Warm-up run populates the page cache / staging buffers, second run is
  // the measured one.
  time_swaps(ranks, n, swaps, &s);
  const double sec = time_swaps(ranks, n, swaps, &s);
  std::printf("%12.3f %12llu %12.2f %12.2f %12.2f\n", sec * 1e3 / swaps,
              static_cast<unsigned long long>(s.swap_chunks), s.pack_ns / 1e6,
              s.exchange_ns / 1e6, s.unpack_ns / 1e6);
  std::printf("Each swap overlaps pack, wire and unpack chunk by chunk over\n"
              "double-buffered staging (rank 0's phase times shown).\n");

  // --- serving: dist:N as an engine backend ------------------------------
  std::printf("\nServing path (SimulationEngine, backend=dist:4):\n\n");
  engine::SimulationEngine eng;
  engine::SimRequest req;
  req.circuit = circuit;
  req.backend = "dist:4";
  req.fusion.max_fused_qubits = 4;
  req.seed = 11;
  req.num_samples = 64;
  const engine::SimResult r = eng.run(req);
  if (!r.ok) {
    std::printf("engine run FAILED: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("ok: %zu samples, backend=%s\n", r.samples.size(),
              r.backend_used.c_str());
  for (const char* key : {"slot_swaps", "swap_rounds", "swap_chunks",
                          "peer_bytes", "pack_ns", "exchange_ns", "unpack_ns"}) {
    if (r.counters.count(key)) {
      std::printf("  %-12s %14.0f\n", key, r.counters.at(key));
    }
  }
  return 0;
}
