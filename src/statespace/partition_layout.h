// Qubit layout of a state vector partitioned over 2^d parts — the
// qHiPSTER-style qubit remapping of the multi-GCD HIP backend ("hip:N") and
// the message-passing backend ("dist:N"), which own only the data movement.
//
// Part k holds the 2^(n-d) amplitudes whose top d physical index bits equal
// k: the low n-d physical slots are "local", the top d "global". A gate
// touching a qubit in a global slot first swaps that slot with a local one
// chosen here; the layout records the swap instead of moving data back.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "src/base/bits.h"
#include "src/base/error.h"
#include "src/base/strings.h"
#include "src/core/circuit.h"

namespace qhip {

// Lookahead over a circuit for eviction: the index of the next gate at or
// after the current one that touches a qubit. Measurement gates read any
// layout, so they are not uses.
class NextUseCursor {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  explicit NextUseCursor(const Circuit& c)
      : uses_(c.num_qubits), pos_(c.num_qubits, 0) {
    for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
      const Gate& g = c.gates[i];
      if (g.is_measurement()) continue;
      for (qubit_t q : g.qubits) uses_[q].push_back(i);
      for (qubit_t q : g.controls) uses_[q].push_back(i);
    }
  }

  // Moves the cursor to gate `i` (non-decreasing across calls).
  void seek(std::uint32_t i) { now_ = i; }

  std::uint64_t next_use(qubit_t q) {
    auto& p = pos_[q];
    const auto& u = uses_[q];
    while (p < u.size() && u[p] < now_) ++p;
    return p < u.size() ? u[p] : kNever;
  }

 private:
  std::vector<std::vector<std::uint32_t>> uses_;  // ascending gate indices
  std::vector<std::size_t> pos_;
  std::uint32_t now_ = 0;
};

class PartitionLayout {
 public:
  // Where a logical basis index lives: its part and its index there.
  struct Location {
    unsigned part;
    index_t index;
  };

  // A global<->local slot exchange chosen by eviction_for().
  struct SlotSwap {
    unsigned global_slot;
    unsigned local_slot;
  };

  // How one part collapses on a measured outcome: a part whose global bits
  // disagree with the outcome is zeroed; a surviving part zeroes the
  // amplitudes whose bits under `local_mask` differ from `local_value`.
  struct CollapseSplit {
    bool survives = true;
    index_t local_mask = 0;
    index_t local_value = 0;
  };

  // The one size rule for partitioned states: a power-of-two part count of
  // at least 2, and at least two local qubits per part, so that both
  // targets of a two-qubit gate fit in one part.
  static bool fits(unsigned num_qubits, unsigned partitions) {
    return partitions >= 2 && is_pow2(partitions) &&
           num_qubits >= log2_exact(partitions) + 2;
  }

  PartitionLayout(unsigned num_qubits, unsigned partitions)
      : d_(fits(num_qubits, partitions) ? log2_exact(partitions) : 0),
        local_(num_qubits - d_),
        slot_to_qubit_(num_qubits),
        qubit_to_slot_(num_qubits) {
    if (!fits(num_qubits, partitions)) {
      throw Error(strfmt("%u qubits cannot be split into %u parts (need a "
                         "power-of-two count >= 2 and at least two qubits per "
                         "part)",
                         num_qubits, partitions));
    }
    reset();
  }

  unsigned num_qubits() const {
    return static_cast<unsigned>(slot_to_qubit_.size());
  }
  unsigned local_qubits() const { return local_; }
  unsigned partitions() const { return 1u << d_; }

  // Identity layout: logical qubit q in physical slot q.
  void reset() {
    std::iota(slot_to_qubit_.begin(), slot_to_qubit_.end(), 0u);
    std::iota(qubit_to_slot_.begin(), qubit_to_slot_.end(), 0u);
  }

  unsigned slot_of(qubit_t q) const {
    check(q < num_qubits(), "PartitionLayout: logical qubit out of range");
    return qubit_to_slot_[q];
  }
  qubit_t qubit_at(unsigned slot) const { return slot_to_qubit_[slot]; }

  index_t physical_to_logical(index_t phys) const {
    index_t logical = 0;
    for (unsigned s = 0; s < num_qubits(); ++s) {
      if (phys & (index_t{1} << s)) logical |= index_t{1} << slot_to_qubit_[s];
    }
    return logical;
  }

  index_t logical_to_physical(index_t logical) const {
    index_t phys = 0;
    for (unsigned q = 0; q < num_qubits(); ++q) {
      if (logical & (index_t{1} << q)) phys |= index_t{1} << qubit_to_slot_[q];
    }
    return phys;
  }

  // Logical basis index of amplitude `i` of part `part`.
  index_t logical_index(unsigned part, index_t i) const {
    return physical_to_logical((static_cast<index_t>(part) << local_) | i);
  }

  Location locate(index_t logical) const {
    const index_t phys = logical_to_physical(logical);
    return {static_cast<unsigned>(phys >> local_), phys & low_mask(local_)};
  }

  // The swap that brings `q` into a local slot, or nothing if it is local.
  // The evicted local slot holds no `pinned` qubit; among the rest, the one
  // whose qubit is next used farthest ahead (Belady). Without lookahead
  // every holder ties and the highest free slot wins.
  std::optional<SlotSwap> eviction_for(qubit_t q,
                                       const std::vector<qubit_t>& pinned,
                                       NextUseCursor* lookahead = nullptr) const {
    const unsigned gslot = slot_of(q);
    if (gslot < local_) return std::nullopt;
    unsigned best = local_;
    std::uint64_t best_next = 0;
    for (unsigned s = local_; s-- > 0;) {
      const qubit_t holder = slot_to_qubit_[s];
      if (std::find(pinned.begin(), pinned.end(), holder) != pinned.end()) {
        continue;
      }
      const std::uint64_t nu =
          lookahead ? lookahead->next_use(holder) : NextUseCursor::kNever;
      if (best == local_ || nu > best_next) {
        best = s;
        best_next = nu;
        if (nu == NextUseCursor::kNever) break;  // cannot do better
      }
    }
    check(best < local_, "PartitionLayout: no free local slot");
    return SlotSwap{gslot, best};
  }

  // Records a swap the caller has carried out on the data.
  void commit(const SlotSwap& s) {
    std::swap(slot_to_qubit_[s.global_slot], slot_to_qubit_[s.local_slot]);
    qubit_to_slot_[slot_to_qubit_[s.global_slot]] = s.global_slot;
    qubit_to_slot_[slot_to_qubit_[s.local_slot]] = s.local_slot;
  }

  // Brings every qubit of `qubits` into a local slot, none evicting another:
  // each needed swap is handed to `run_swap` to move the data, then
  // committed. Returns the number of swaps.
  template <typename SwapFn>
  unsigned localize(const std::vector<qubit_t>& qubits,
                    NextUseCursor* lookahead, SwapFn&& run_swap) {
    unsigned swaps = 0;
    for (qubit_t q : qubits) {
      if (const auto sw = eviction_for(q, qubits, lookahead)) {
        run_swap(*sw);
        commit(*sw);
        ++swaps;
      }
    }
    return swaps;
  }

  // Part `part`'s collapse for `outcome` over logical `qubits` (bit j of the
  // outcome = qubits[j]).
  CollapseSplit collapse_split(unsigned part, const std::vector<qubit_t>& qubits,
                               index_t outcome) const {
    CollapseSplit c;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      const unsigned s = slot_of(qubits[j]);
      const index_t bit = (outcome >> j) & 1;
      if (s < local_) {
        c.local_mask |= index_t{1} << s;
        c.local_value |= bit << s;
      } else {
        c.survives &= ((part >> (s - local_)) & 1) == bit;
      }
    }
    return c;
  }

  // Copies part `part`'s 2^local amplitudes (physical order) to their places
  // in `full`, the 2^n-amplitude state in logical order.
  template <typename T>
  void scatter(unsigned part, const T* slice, T* full) const {
    scatter_range(part, 0, pow2(local_), slice, full);
  }

  // scatter() of amplitudes [first, first + count) of the part only; `slice`
  // points at amplitude `first`. Both bounds are multiples of 256 (or the
  // whole part, when it is smaller).
  template <typename T>
  void scatter_range(unsigned part, index_t first, index_t count,
                     const T* slice, T* full) const {
    // physical_to_logical maps each slot bit to one qubit bit, so it splits
    // over OR: the low slot bits go through one table, the rest once per
    // block of 2^lb amplitudes.
    const unsigned lb = std::min(local_, 8u);
    check(((first | count) & low_mask(lb)) == 0 && first + count <= pow2(local_),
          "PartitionLayout::scatter_range: range not on block boundaries");
    std::vector<index_t> low(pow2(lb));
    for (index_t j = 0; j < low.size(); ++j) low[j] = physical_to_logical(j);
    for (index_t at = 0; at < count; at += low.size()) {
      const index_t base = logical_index(part, first + at);
      for (index_t j = 0; j < low.size(); ++j) full[base | low[j]] = slice[at + j];
    }
  }

 private:
  unsigned d_;
  unsigned local_;
  std::vector<qubit_t> slot_to_qubit_;   // physical slot -> logical qubit
  std::vector<unsigned> qubit_to_slot_;  // logical qubit -> physical slot
};

}  // namespace qhip
