// Coverage for the small base utilities: Timer, aligned allocation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <thread>
#include <vector>

#include "src/base/aligned.h"
#include "src/base/timer.h"
#include "src/base/types.h"

namespace qhip {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.seconds(), 0.008);
  EXPECT_LT(t.seconds(), 5.0);
  EXPECT_GE(t.micros(), 8000u);
}

TEST(Timer, ResetRestarts) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.reset();
  EXPECT_LT(t.seconds(), 0.004);
}

TEST(Timer, NowMicrosMonotone) {
  const auto a = Timer::now_micros();
  const auto b = Timer::now_micros();
  EXPECT_LE(a, b);
}

TEST(Aligned, VectorsAreCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u, 1u << 17, (1u << 17) + 3}) {
    std::vector<cplx32, AlignedAllocator<cplx32>> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlign, 0u) << n;
  }
}

// Resident set size of this process, from /proc/self/statm (in pages).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// A state freed by one request must not stay resident: the first large
// free would raise glibc's mmap threshold to its size, after which a smaller
// multi-megabyte block from malloc stays resident in the arena once freed.
TEST(Aligned, LargeBuffersLeaveTheResidentSetWhenFreed) {
  using Buffer = std::vector<cplx32, AlignedAllocator<cplx32>>;
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  { Buffer first(2 * kBytes / sizeof(cplx32)); }
  const std::size_t before = resident_bytes();
  {
    Buffer v(kBytes / sizeof(cplx32));  // zero-filled, so every page touched
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlign, 0u);
    EXPECT_GE(resident_bytes(), before + kBytes / 2);
  }
  EXPECT_LT(resident_bytes(), before + kBytes / 4);
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<float> a;
  AlignedAllocator<double> b;
  EXPECT_TRUE(a == b);  // stateless: all instances interchangeable
}

TEST(Types, PrecisionHelpers) {
  EXPECT_EQ(precision_of<float>(), Precision::kSingle);
  EXPECT_EQ(precision_of<double>(), Precision::kDouble);
  EXPECT_EQ(amp_bytes(Precision::kSingle), 8u);
  EXPECT_EQ(amp_bytes(Precision::kDouble), 16u);
  EXPECT_STREQ(to_string(Precision::kSingle), "single");
  EXPECT_STREQ(to_string(Precision::kDouble), "double");
}

}  // namespace
}  // namespace qhip
