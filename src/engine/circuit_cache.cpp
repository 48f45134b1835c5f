#include "src/engine/circuit_cache.h"

#include "src/base/timer.h"

namespace qhip::engine {

namespace {

// The cache key: the fusion options, then the circuit's identity bytes.
std::string cache_key(const Circuit& circuit, const FusionOptions& opt) {
  std::string key;
  append_word(key, opt.max_fused_qubits);
  append_word(key, opt.window_moments);
  append_circuit_identity(key, circuit);
  return key;
}

}  // namespace

std::size_t FusedCircuitCache::approx_bytes(const FusionResult& r) {
  std::size_t bytes = 0;
  for (const Gate& g : r.circuit.gates) {
    bytes += g.matrix.dim() * g.matrix.dim() * sizeof(cplx64);
    bytes += sizeof(Gate);
  }
  return bytes;
}

template <typename BuildFn>
std::shared_ptr<const FusionResult> FusedCircuitCache::get_or_build(
    std::string key, BuildFn&& build, bool* hit) {
  {
    std::lock_guard lk(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Refresh LRU position.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      if (hit) *hit = true;
      return it->second->fused;
    }
    ++stats_.misses;
  }
  if (hit) *hit = false;

  // Build outside the lock: a slow transpile of one circuit must not stall
  // hits on others. Two threads missing on the same key both build; the
  // results are identical and the second insert just refreshes the entry.
  auto fused = std::make_shared<const FusionResult>(build());
  if (capacity_ == 0) return fused;

  std::lock_guard lk(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->fused;
  }
  lru_.push_front(Entry{std::move(key), fused, approx_bytes(*fused)});
  index_.emplace(lru_.front().key, lru_.begin());
  stats_.approx_bytes += lru_.front().approx_bytes;
  while (lru_.size() > capacity_) {
    const Entry& victim = lru_.back();
    stats_.approx_bytes -= victim.approx_bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
  return fused;
}

std::shared_ptr<const FusionResult> FusedCircuitCache::get_or_fuse(
    const Circuit& circuit, const FusionOptions& opt, bool* hit) {
  return get_or_build(cache_key(circuit, opt),
                      [&] { return fuse_circuit(circuit, opt); }, hit);
}

std::shared_ptr<const FusionResult> FusedCircuitCache::get_or_normalize(
    const Circuit& circuit, bool* hit) {
  // {0, 0} is unreachable from fuse_circuit (it requires max_fused_qubits
  // >= 1), so this sub-keyspace is exclusively the normalized forms.
  FusionOptions reserved;
  reserved.max_fused_qubits = 0;
  reserved.window_moments = 0;
  return get_or_build(
      cache_key(circuit, reserved),
      [&] {
        Timer t;
        FusionResult r;
        r.circuit = normalize_circuit(circuit);
        r.stats.input_gates = circuit.gates.size();
        r.stats.output_gates = r.circuit.gates.size();
        r.stats.seconds = t.seconds();
        return r;
      },
      hit);
}

FusedCacheStats FusedCircuitCache::stats() const {
  std::lock_guard lk(mu_);
  FusedCacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

void FusedCircuitCache::clear() {
  std::lock_guard lk(mu_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  stats_.approx_bytes = 0;
}

}  // namespace qhip::engine
