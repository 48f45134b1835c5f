// Shared command-line layer for the qsim_*_hip drivers.
//
// Every driver used to carry its own copy of the argv loop, with the same
// flags drifting apart (-t meant a trace file in one binary and a trajectory
// count in another). This header is the single flag table they all share:
//
//   -c <circuit>          circuit file (qsim text format)
//   -b <backend>          cpu | hip | a100 | hip:N | dist:N | auto
//                         (default hip; auto = engine cost-model placement)
//   -p single|double      precision                       (default single)
//   -f <max-fused>        fusion limit                    (default 2)
//   -w <window>           fusion temporal window          (default 4)
//   -s <seed>             measurement/sampling seed       (default 1)
//   -m <samples>          final-state samples to draw     (default 0)
//   -t <trace.json>       write a Perfetto trace
//   -O                    run the transpile optimizer first
//   --faults <spec>       vgpu fault-injection plan (QHIP_FAULT_SPEC grammar)
//   --fallback-backend <b>  degrade to backend b when the primary keeps
//                           failing (batch mode)
//
// App-specific flags plug in through the `extra` hook so each driver only
// states what is unique to it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/core/circuit.h"
#include "src/fusion/fuser.h"

namespace qhip::cli {

struct CommonArgs {
  std::string circuit_file;
  std::string backend = "hip";
  std::string precision = "single";
  std::string trace_file;
  // -f / -w land here — the same FusionOptions SimRequest carries, so the
  // flag table and the request struct cannot drift.
  FusionOptions fusion;
  std::uint64_t seed = 1;
  std::size_t samples = 0;
  bool optimize = false;
  // Fault-injection plan installed into every virtual-GPU backend the driver
  // creates (see src/vgpu/fault.h for the grammar); empty = no faults.
  std::string fault_spec;
  // Backend to degrade onto when the primary keeps failing (engine/batch
  // mode only); empty = fail the request instead.
  std::string fallback_backend;
};

// Pulls the next argv token for a flag value; nullptr when argv is exhausted.
using NextFn = std::function<const char*()>;

// App-specific flag hook. Return true if `arg` was consumed (values pulled
// via `next`; throw qhip::Error via parse_uint/parse_double on bad values),
// false to reject the flag and fail the parse.
using ExtraFlagFn =
    std::function<bool(const std::string& arg, const NextFn& next)>;

// Parses the shared flag table above, handing unknown flags to `extra`.
// Defaults may be pre-seeded by the caller in *out before the call. Returns
// false on malformed input (unknown flag or missing value) — callers print
// their usage line and exit.
bool parse_common_args(int argc, char** argv, CommonArgs* out,
                       const ExtraFlagFn& extra = {});

// The usage text for the shared flags, for embedding in per-app usage lines.
const char* common_usage();

// Loads -c, applies -O when asked (printing the optimizer summary), and
// enforces the 26-qubit host cap shared by all drivers.
Circuit load_circuit(const CommonArgs& a);

// "samples: s0 s1 ... (N total)" capped at 16 printed values.
void print_samples(const std::vector<index_t>& samples);

// "  |i> = (re, im)  p=..." for the first `count` amplitudes.
void print_amplitudes(const std::vector<cplx64>& amps);

}  // namespace qhip::cli
