// Fused-circuit LRU cache.
//
// Transpiling (gate fusion) costs little per run — the paper bounds it below
// 2% of a single run — but a serving layer that sees the same circuit
// thousands of times should pay it once. The cache keys on the fusion
// options plus the circuit's canonical identity bytes
// (append_circuit_identity), so a lookup compares the full circuit, never a
// hash of it. It stores the complete FusionResult behind a shared_ptr, so
// concurrent requests can hold a hit while the cache evicts and refills
// around them.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/core/circuit.h"
#include "src/fusion/fuser.h"

namespace qhip::engine {

struct FusedCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t approx_bytes = 0;  // matrix payload of the cached fused circuits

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class FusedCircuitCache {
 public:
  // `capacity`: max cached entries; 0 disables caching (every call fuses).
  explicit FusedCircuitCache(std::size_t capacity) : capacity_(capacity) {}

  // Returns the fused form of `circuit` under `opt`, fusing on a miss.
  // `hit`, when non-null, reports whether the transpile was skipped.
  std::shared_ptr<const FusionResult> get_or_fuse(const Circuit& circuit,
                                                  const FusionOptions& opt,
                                                  bool* hit = nullptr);

  // Returns the normalize_circuit form of `circuit` (gate boundaries intact —
  // what the trajectory runner needs, where fusion would compose same-qubit
  // neighbours and move the noise-channel insertion points). Cached in the
  // same LRU as fused circuits under the reserved options {0, 0}, which
  // fuse_circuit rejects (max_fused_qubits >= 1), so the key spaces cannot
  // collide. The result is packaged as a FusionResult with input == output
  // gate counts so callers can report it through the existing stats plumbing.
  std::shared_ptr<const FusionResult> get_or_normalize(const Circuit& circuit,
                                                       bool* hit = nullptr);

  FusedCacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::string key;  // identity bytes; index_ views this string
    std::shared_ptr<const FusionResult> fused;
    std::size_t approx_bytes;
  };

  static std::size_t approx_bytes(const FusionResult& r);

  // Shared lookup/build/insert path; `build` runs outside the lock on a miss.
  template <typename BuildFn>
  std::shared_ptr<const FusionResult> get_or_build(std::string key,
                                                   BuildFn&& build, bool* hit);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  FusedCacheStats stats_;
};

}  // namespace qhip::engine
