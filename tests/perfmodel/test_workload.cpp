#include "src/perfmodel/workload.h"

#include <gtest/gtest.h>

#include "src/base/error.h"
#include "src/core/gates.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"

namespace qhip::perfmodel {
namespace {

TEST(Workload, CountsByWidthAndKernelClass) {
  Circuit c;
  c.num_qubits = 8;
  c.gates.push_back(gates::h(0, 0));        // q=1, low
  c.gates.push_back(gates::h(0, 6));        // q=1, high
  c.gates.push_back(gates::cz(1, 5, 7));    // q=2, high
  c.gates.push_back(gates::cz(1, 2, 6));    // q=2, low (lowest target < 5)
  c.gates.push_back(gates::measure(2, {0}));
  const WorkloadStats w = WorkloadStats::from_circuit(c);
  EXPECT_EQ(w.num_qubits, 8u);
  EXPECT_EQ(w.num_gates, 4u);
  EXPECT_EQ(w.num_measurements, 1u);
  EXPECT_EQ(w.counts[1][1], 1u);  // low q1
  EXPECT_EQ(w.counts[1][0], 1u);  // high q1
  EXPECT_EQ(w.counts[2][0], 1u);
  EXPECT_EQ(w.counts[2][1], 1u);
  EXPECT_EQ(w.low_gates(), 2u);
  EXPECT_EQ(w.high_gates(), 2u);
}

TEST(Workload, FlopAndByteFormulas) {
  WorkloadStats w;
  w.num_qubits = 10;  // 1024 amplitudes
  // One width-2 gate: flops = 8 * 2^10 * 4; bytes = 2 * 2^10 * amp_bytes.
  EXPECT_DOUBLE_EQ(w.flops(2), 8.0 * 1024 * 4);
  EXPECT_DOUBLE_EQ(w.bytes(2, 8), 2.0 * 1024 * 8);
  EXPECT_DOUBLE_EQ(w.bytes(2, 16), 2.0 * 1024 * 16);
}

TEST(Workload, TotalsSumOverGates) {
  WorkloadStats w;
  w.num_qubits = 4;
  w.counts[1][0] = 2;
  w.counts[3][1] = 1;
  EXPECT_DOUBLE_EQ(w.total_flops(), 2 * w.flops(1) + w.flops(3));
  EXPECT_DOUBLE_EQ(w.total_bytes(8), 3 * 2.0 * 16 * 8);
}

TEST(Workload, FusedRqc30CountsAreStable) {
  // Pin the fused workload of the paper's benchmark so model predictions
  // (and EXPERIMENTS.md) stay reproducible.
  const Circuit c = rqc::circuit_q30();
  const auto fused = fuse_circuit(c, {4});
  const WorkloadStats w = WorkloadStats::from_circuit(fused.circuit);
  EXPECT_EQ(w.num_qubits, 30u);
  EXPECT_EQ(w.num_gates, 115u);
  EXPECT_EQ(w.low_gates(), 32u);  // L-kernel launches at the paper's split
  EXPECT_GT(w.counts[4][0] + w.counts[4][1], 20u);
}

TEST(Workload, WidthOutOfRangeRejected) {
  Circuit c;
  c.num_qubits = 8;
  Gate g;
  g.name = "fused";
  for (qubit_t q = 0; q < 7; ++q) g.qubits.push_back(q);
  g.matrix = CMatrix::identity(128);
  c.gates.push_back(std::move(g));
  EXPECT_THROW(WorkloadStats::from_circuit(c), qhip::Error);
}

}  // namespace
}  // namespace qhip::perfmodel
