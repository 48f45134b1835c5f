// Options and result of one fuse + simulate + sample run through a Backend
// (qhip::run_circuit in src/engine/backend.h) — the equivalent of qsim's
// Runner / qsim_base driver, reporting the same timing split the paper
// quotes (fusion is claimed to be < 2% of total execution time).
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/types.h"
#include "src/fusion/fuser.h"

namespace qhip {

struct RunOptions {
  FusionOptions fusion;           // gate-fusion knobs (shared struct; the
                                  // engine's SimRequest and the CLIs use the
                                  // same type, DESIGN.md §13)
  std::uint64_t seed = 1;         // measurement + sampling seed
  std::size_t num_samples = 0;    // basis-state samples to draw at the end
};

struct RunResult {
  FusionStats fusion;
  double fuse_seconds = 0;
  double sim_seconds = 0;
  double sample_seconds = 0;
  double total_seconds = 0;
  std::vector<index_t> measurements;  // outcomes of in-circuit 'm' gates
  std::vector<index_t> samples;       // final-state samples
};

}  // namespace qhip
