// PartitionLayout, device- and transport-free: the slot maps stay mutually
// inverse under any swap sequence, eviction never displaces a pinned qubit
// and follows farthest next use, and the per-part collapse split and
// logical-order scatter agree with brute-force per-index definitions.
#include "src/statespace/partition_layout.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/base/rng.h"
#include "src/core/gates.h"

namespace qhip {
namespace {

// Applies `count` random global<->local swaps.
void scramble(PartitionLayout& layout, Xoshiro256& rng, int count) {
  const unsigned n = layout.num_qubits();
  const unsigned local = layout.local_qubits();
  for (int i = 0; i < count; ++i) {
    const unsigned g = local + static_cast<unsigned>(rng.uniform() * (n - local));
    const unsigned l = static_cast<unsigned>(rng.uniform() * local);
    layout.commit({g, l});
  }
}

TEST(PartitionLayout, SizeRule) {
  EXPECT_FALSE(PartitionLayout::fits(8, 1));  // nothing to partition
  EXPECT_FALSE(PartitionLayout::fits(8, 3));  // not a power of two
  EXPECT_FALSE(PartitionLayout::fits(2, 2));  // one local qubit
  EXPECT_TRUE(PartitionLayout::fits(3, 2));
  EXPECT_FALSE(PartitionLayout::fits(3, 4));
  EXPECT_TRUE(PartitionLayout::fits(4, 4));
  EXPECT_THROW(PartitionLayout(2, 2), Error);
  const PartitionLayout layout(10, 8);
  EXPECT_EQ(layout.partitions(), 8u);
  EXPECT_EQ(layout.local_qubits(), 7u);
}

TEST(PartitionLayout, MapsStayInverseAfterRandomSwaps) {
  Xoshiro256 rng(3);
  for (unsigned parts : {2u, 4u, 8u}) {
    PartitionLayout layout(9, parts);
    for (int round = 0; round < 20; ++round) {
      scramble(layout, rng, 1 + round);
      std::set<qubit_t> seen;
      for (unsigned s = 0; s < 9; ++s) {
        EXPECT_EQ(layout.slot_of(layout.qubit_at(s)), s);
        seen.insert(layout.qubit_at(s));
      }
      EXPECT_EQ(seen.size(), 9u);  // still a permutation
      for (index_t x = 0; x < pow2(9); x += 7) {
        const index_t phys = layout.logical_to_physical(x);
        EXPECT_EQ(layout.physical_to_logical(phys), x);
        const PartitionLayout::Location at = layout.locate(x);
        EXPECT_EQ(layout.logical_index(at.part, at.index), x);
        EXPECT_EQ(at.part, phys >> layout.local_qubits());
        // Bit q of the logical index sits at bit slot_of(q) physically.
        for (qubit_t q = 0; q < 9; ++q) {
          EXPECT_EQ((x >> q) & 1, (phys >> layout.slot_of(q)) & 1);
        }
      }
    }
    layout.reset();
    for (qubit_t q = 0; q < 9; ++q) EXPECT_EQ(layout.slot_of(q), q);
  }
}

TEST(PartitionLayout, PinnedQubitsAreNeverEvicted) {
  Xoshiro256 rng(5);
  PartitionLayout layout(8, 4);  // 6 local slots, 2 global
  for (int round = 0; round < 50; ++round) {
    scramble(layout, rng, 3);
    const qubit_t q = layout.qubit_at(6 + (round & 1));  // a global qubit
    std::vector<qubit_t> pinned{q};
    for (qubit_t p = 0; p < 8; ++p) {
      if (p != q && rng.uniform() < 0.5) pinned.push_back(p);
    }
    unsigned free_local = 0;
    for (unsigned s = 0; s < 6; ++s) {
      const qubit_t holder = layout.qubit_at(s);
      free_local += std::find(pinned.begin(), pinned.end(), holder) == pinned.end();
    }
    if (free_local == 0) {
      EXPECT_THROW(layout.eviction_for(q, pinned), Error);
      continue;
    }
    const auto sw = layout.eviction_for(q, pinned);
    ASSERT_TRUE(sw.has_value());
    EXPECT_EQ(sw->global_slot, layout.slot_of(q));
    ASSERT_LT(sw->local_slot, 6u);
    const qubit_t evicted = layout.qubit_at(sw->local_slot);
    EXPECT_EQ(std::find(pinned.begin(), pinned.end(), evicted), pinned.end());
  }
  // A local qubit needs no swap.
  EXPECT_FALSE(layout.eviction_for(layout.qubit_at(0), {}).has_value());
}

// Localizing q3 must evict a never-again-used qubit rather than q2, which
// the very next gate needs: one swap with lookahead, two without.
TEST(PartitionLayout, LookaheadPicksFarthestNextUseEviction) {
  Circuit c;
  c.num_qubits = 4;
  c.gates.push_back(gates::h(0, 3));
  c.gates.push_back(gates::h(1, 2));
  const auto count_swaps = [&](bool with_lookahead) {
    PartitionLayout layout(4, 2);  // slot 3 is global
    NextUseCursor cursor(c);
    unsigned swaps = 0;
    for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
      cursor.seek(i);
      swaps += layout.localize(c.gates[i].qubits,
                               with_lookahead ? &cursor : nullptr,
                               [](const auto&) {});
    }
    return swaps;
  };
  EXPECT_EQ(count_swaps(false), 2u);
  EXPECT_EQ(count_swaps(true), 1u);

  // The choice itself: highest free slot without lookahead, the slot of a
  // never-used qubit with it.
  PartitionLayout layout(4, 2);
  NextUseCursor cursor(c);
  EXPECT_EQ(layout.eviction_for(3, {3})->local_slot, 2u);
  EXPECT_EQ(layout.eviction_for(3, {3}, &cursor)->local_slot, 1u);
}

TEST(PartitionLayout, NextUseSkipsMeasurementsAndPastGates) {
  Circuit c;
  c.num_qubits = 3;
  c.gates.push_back(gates::cnot(0, 0, 1));
  c.gates.push_back(gates::measure(1, {2}));
  c.gates.push_back(gates::h(2, 2));
  NextUseCursor cursor(c);
  EXPECT_EQ(cursor.next_use(0), 0u);
  EXPECT_EQ(cursor.next_use(2), 2u);  // the measurement is not a use
  cursor.seek(1);
  EXPECT_EQ(cursor.next_use(0), NextUseCursor::kNever);
  EXPECT_EQ(cursor.next_use(1), NextUseCursor::kNever);
  EXPECT_EQ(cursor.next_use(2), 2u);
}

TEST(PartitionLayout, CollapseSplitMatchesBruteForce) {
  Xoshiro256 rng(9);
  const unsigned n = 7;
  for (unsigned parts : {2u, 4u, 8u}) {
    PartitionLayout layout(n, parts);
    const unsigned local = layout.local_qubits();
    for (int round = 0; round < 20; ++round) {
      scramble(layout, rng, 2);
      std::vector<qubit_t> qubits;
      for (qubit_t q = 0; q < n; ++q) {
        if (rng.uniform() < 0.4) qubits.push_back(q);
      }
      if (qubits.empty()) qubits.push_back(n - 1);
      const index_t outcome =
          static_cast<index_t>(rng.uniform() * pow2(qubits.size()));
      for (unsigned k = 0; k < parts; ++k) {
        const auto split = layout.collapse_split(k, qubits, outcome);
        for (index_t i = 0; i < pow2(local); ++i) {
          const index_t logical =
              layout.physical_to_logical((index_t{k} << local) | i);
          const bool want = gather_bits(logical, qubits) == outcome;
          const bool got =
              split.survives && (i & split.local_mask) == split.local_value;
          ASSERT_EQ(got, want) << "part " << k << " index " << i;
        }
      }
    }
  }
}

TEST(PartitionLayout, ScatterPlacesEveryAmplitudeInLogicalOrder) {
  // Parts smaller and larger than scatter's 256-amplitude blocks; the larger
  // one is also scattered in ranges, as the chunked dist gather does.
  for (const auto& [n, parts] : {std::pair{6u, 4u}, std::pair{12u, 2u}}) {
    Xoshiro256 rng(11);
    PartitionLayout layout(n, parts);
    scramble(layout, rng, 5);
    const index_t part_size = pow2(layout.local_qubits());
    std::vector<index_t> full(pow2(n), ~index_t{0});
    for (unsigned k = 0; k < parts; ++k) {
      // Each part's "amplitudes" are their own physical indices.
      std::vector<index_t> slice(part_size);
      for (index_t i = 0; i < part_size; ++i) slice[i] = k * part_size + i;
      if (part_size <= 256) {
        layout.scatter(k, slice.data(), full.data());
        continue;
      }
      for (index_t at = 0; at < part_size; at += 512) {
        layout.scatter_range(k, at, 512, slice.data() + at, full.data());
      }
    }
    for (index_t x = 0; x < full.size(); ++x) {
      EXPECT_EQ(full[x], layout.logical_to_physical(x)) << "n=" << n << " " << x;
    }
  }
  int* none = nullptr;
  EXPECT_THROW(PartitionLayout(12, 2).scatter_range(0, 100, 256, none, none),
               Error);
}

}  // namespace
}  // namespace qhip
