// Cache-line / vector-register aligned storage for state vectors.
//
// State vectors are the only multi-gigabyte allocation in the simulator;
// they are allocated once and reused. 64-byte alignment matches both the
// x86 cache line and the widest AVX-512 register qsim's CPU backend targets.
//
// Buffers of kMapBytes and more are mapped from the OS and unmapped on
// release, so a freed state leaves the resident set at once. Through malloc
// it would not: after the first large free, glibc serves blocks up to 32 MiB
// from the arena of the allocating thread and keeps freed ones resident
// there, so the resident set would depend on which threads (dist:N ranks,
// engine workers) allocated and freed which states in what order.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

namespace qhip {

inline constexpr std::size_t kAlign = 64;
inline constexpr std::size_t kMapBytes = std::size_t{1} << 20;

// Minimal aligned allocator for std::vector-style containers.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T) - kAlign) {
      throw std::bad_alloc();
    }
    const std::size_t bytes = round_up(n * sizeof(T));
    if (bytes >= kMapBytes) {
      void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(p);  // page-aligned
    }
    void* p = std::aligned_alloc(kAlign, bytes);
    if (!p) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = round_up(n * sizeof(T));
    if (bytes >= kMapBytes) {
      munmap(p, bytes);
    } else {
      std::free(p);
    }
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }

 private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlign - 1) / kAlign * kAlign;
  }
};

}  // namespace qhip
