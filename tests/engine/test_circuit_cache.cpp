// Circuit identity bytes (append_circuit_identity) and FusedCircuitCache:
// LRU eviction and hit accounting.
#include <gtest/gtest.h>

#include <string>

#include "src/core/gates.h"
#include "src/engine/circuit_cache.h"
#include "src/rqc/rqc.h"

namespace qhip::engine {
namespace {

Circuit make_rqc(unsigned rows, unsigned cols, unsigned depth, std::uint64_t seed) {
  rqc::RqcOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.depth = depth;
  opt.seed = seed;
  return rqc::generate_rqc(opt);
}

std::string identity(const Circuit& c) {
  std::string bytes;
  append_circuit_identity(bytes, c);
  return bytes;
}

TEST(CircuitIdentity, StableAndStructural) {
  const Circuit a = make_rqc(2, 3, 8, 7);
  const Circuit b = make_rqc(2, 3, 8, 7);   // same construction -> same bytes
  const Circuit c = make_rqc(2, 3, 8, 8);   // different seed -> different gates
  EXPECT_EQ(identity(a), identity(b));
  EXPECT_NE(identity(a), identity(c));

  // Appends: existing bytes in the buffer are kept as a prefix.
  std::string prefixed = "prefix";
  append_circuit_identity(prefixed, a);
  EXPECT_EQ(prefixed, "prefix" + identity(a));
}

TEST(CircuitIdentity, SensitiveToParams) {
  Circuit a;
  a.num_qubits = 2;
  a.gates.push_back(gates::rx(0, 0, 0.5));
  Circuit b;
  b.num_qubits = 2;
  b.gates.push_back(gates::rx(0, 0, 0.5000001));
  EXPECT_NE(identity(a), identity(b));
}

TEST(FusedCircuitCache, HitReturnsSameFusion) {
  FusedCircuitCache cache(8);
  const Circuit c = make_rqc(2, 3, 8, 1);
  bool hit = true;
  const auto first = cache.get_or_fuse(c, {3, 4}, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_fuse(c, {3, 4}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // literally the same object
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FusedCircuitCache, KeyIncludesFusionParams) {
  FusedCircuitCache cache(8);
  const Circuit c = make_rqc(2, 3, 8, 1);
  bool hit = true;
  cache.get_or_fuse(c, {2, 4}, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_fuse(c, {3, 4}, &hit);  // different max_fused -> miss
  EXPECT_FALSE(hit);
  cache.get_or_fuse(c, {2, 8}, &hit);  // different window -> miss
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(FusedCircuitCache, LruEviction) {
  FusedCircuitCache cache(2);
  const Circuit a = make_rqc(2, 2, 6, 1);
  const Circuit b = make_rqc(2, 2, 6, 2);
  const Circuit c = make_rqc(2, 2, 6, 3);
  bool hit = false;
  cache.get_or_fuse(a, {2, 4}, &hit);
  cache.get_or_fuse(b, {2, 4}, &hit);
  cache.get_or_fuse(a, {2, 4}, &hit);  // refresh a; b is now LRU
  EXPECT_TRUE(hit);
  cache.get_or_fuse(c, {2, 4}, &hit);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.get_or_fuse(a, {2, 4}, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_fuse(b, {2, 4}, &hit);  // b was evicted
  EXPECT_FALSE(hit);
}

TEST(FusedCircuitCache, ZeroCapacityDisables) {
  FusedCircuitCache cache(0);
  const Circuit c = make_rqc(2, 2, 6, 1);
  bool hit = true;
  cache.get_or_fuse(c, {2, 4}, &hit);
  cache.get_or_fuse(c, {2, 4}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 0u);
}

}  // namespace
}  // namespace qhip::engine
