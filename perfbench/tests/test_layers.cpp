// Tests of the benchmark's reduction helpers: tail-percentile selection,
// ratio bases, kernel-name classing on a canned trace, and span self time.
#include <gtest/gtest.h>

#include "perfbench/src/layers.h"

using namespace perfbench;

TEST(Percentile, NearestRankOnIntegers) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 500), 50);
  EXPECT_EQ(percentile(v, 990), 99);
  EXPECT_EQ(percentile(v, 999), 100);
  EXPECT_EQ(percentile(v, 750), 75);
  EXPECT_EQ(percentile({}, 500), 0);
  EXPECT_EQ(percentile({7}, 990), 7);
}

TEST(Percentile, BalancedModesPinTheMedianToAModeEdge) {
  // Four configs of one rotation, k rounds each: the nearest-rank median is
  // the slowest request of the second-fastest mode for every k.
  for (int k = 5; k <= 15; ++k) {
    std::vector<double> v;
    for (int r = 0; r < k; ++r) {
      for (double mode : {100.0, 200.0, 300.0, 400.0}) v.push_back(mode + r);
    }
    EXPECT_EQ(percentile(v, 500), 200 + k - 1) << k;
    EXPECT_EQ(percentile(v, 750), 300 + k - 1) << k;
  }
}

TEST(TailSelection, AtLeastTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 990), 10u);
  EXPECT_EQ(samples_beyond(999, 990), 9u);   // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(40, 750), 10u);
  EXPECT_EQ(samples_beyond(39, 750), 9u);
  EXPECT_EQ(samples_beyond(0, 500), 0u);

  EXPECT_EQ(pick_tail_permille(10000), 999u);  // 10 beyond p99.9
  EXPECT_EQ(pick_tail_permille(9999), 990u);   // p99.9 leaves only 9
  EXPECT_EQ(pick_tail_permille(6000), 990u);
  EXPECT_EQ(pick_tail_permille(1000), 990u);
  EXPECT_EQ(pick_tail_permille(999), 950u);    // p99 leaves only 9
  EXPECT_EQ(pick_tail_permille(200), 950u);
  EXPECT_EQ(pick_tail_permille(199), 900u);
  EXPECT_EQ(pick_tail_permille(100), 900u);
  EXPECT_EQ(pick_tail_permille(40), 750u);
  EXPECT_EQ(pick_tail_permille(39), 670u);
  EXPECT_EQ(pick_tail_permille(20), 500u);
  EXPECT_EQ(pick_tail_permille(19), 0u);
  for (std::size_t n = 20; n < 5000; n += 7) {
    const unsigned p = pick_tail_permille(n);
    ASSERT_GE(samples_beyond(n, p), 10u) << n;
  }
  EXPECT_EQ(percentile_label(990), "p99");
  EXPECT_EQ(percentile_label(999), "p99.9");
  EXPECT_EQ(percentile_label(670), "p67");
}

TEST(Rates, MedianOverGroups) {
  // Rotations of 4 taking 2 s, 2 s, 8 s (a stall), 2 s: the median rate
  // ignores the stall; the trailing partial rotation is dropped.
  const std::vector<double> done = {0.5, 1, 1.5, 2,  2.5, 3,  3.5, 4,
                                    6,   8, 10,  12, 12.5, 13, 13.5, 14, 15};
  const std::vector<double> ones(done.size(), 1.0);
  EXPECT_DOUBLE_EQ(median_rate(done, ones, 4), 2.0);
  std::vector<double> half(done.size(), 0.0);
  for (std::size_t i = 0; i < done.size(); i += 2) half[i] = 1;
  EXPECT_DOUBLE_EQ(median_rate(done, half, 4), 1.0);
  EXPECT_DOUBLE_EQ(median_rate(done, ones, 0), 0.0);
  EXPECT_DOUBLE_EQ(median_rate({}, {}, 4), 0.0);
}

TEST(Ratio, ValueAndBase) {
  EXPECT_EQ((Ratio{3, 4}).value(), 0.75);
  EXPECT_EQ((Ratio{0, 0}).value(), 0.0);  // no lookups: 0, base says why
  EXPECT_EQ((Ratio{5, 5}).value(), 1.0);
  // Engine counters are cumulative; the benchmark reports phase deltas.
  EXPECT_EQ(counter_delta(10, 25), 15u);
  EXPECT_EQ(counter_delta(25, 10), 0u);
  const Ratio fused{counter_delta(100, 160), counter_delta(100, 160) +
                                                 counter_delta(4, 24)};
  EXPECT_EQ(fused.base, 80u);
  EXPECT_EQ(fused.value(), 0.75);
}

TEST(KernelClassing, NamesOfTheVirtualGpu) {
  using qhip::TraceKind;
  EXPECT_EQ(classify_event("ApplyGateH_Kernel", TraceKind::kKernel), KernelClass::kH);
  EXPECT_EQ(classify_event("ApplyGateL_Kernel", TraceKind::kKernel), KernelClass::kL);
  EXPECT_EQ(classify_event("ChunkSum_Kernel", TraceKind::kKernel), KernelClass::kReduce);
  EXPECT_EQ(classify_event("InnerProduct_Kernel", TraceKind::kKernel), KernelClass::kReduce);
  EXPECT_EQ(classify_event("Expectation_Kernel", TraceKind::kKernel), KernelClass::kReduce);
  EXPECT_EQ(classify_event("hipMemcpyAsync", TraceKind::kMemcpy), KernelClass::kMemcpy);
  EXPECT_EQ(classify_event("hipMemcpyDtoD", TraceKind::kKernel), KernelClass::kMemcpy);
  EXPECT_EQ(classify_event("Fill_Kernel", TraceKind::kKernel), KernelClass::kOther);
  EXPECT_EQ(classify_event("SampleResolve_Kernel", TraceKind::kKernel), KernelClass::kOther);
}

TEST(KernelClassing, CannedTraceReducedByCorrelation) {
  using qhip::TraceEvent;
  using qhip::TraceKind;
  const std::vector<TraceEvent> trace = {
      {"ApplyGateH_Kernel", TraceKind::kKernel, 0, 1000, 1, 0, 7, ""},
      {"ApplyGateL_Kernel", TraceKind::kKernel, 1000, 3000, 1, 0, 7, ""},
      {"ApplyGateL_Kernel", TraceKind::kKernel, 4000, 2000, 1, 0, 8, ""},
      {"ChunkSum_Kernel", TraceKind::kKernel, 6000, 500, 1, 0, 7, ""},
      {"hipMemcpyAsync", TraceKind::kMemcpy, 6500, 250, 2, 4096, 7, ""},
      {"Fill_Kernel", TraceKind::kKernel, 0, 100, 1, 0, 7, ""},
      {"request", TraceKind::kSpan, 0, 9000, 107, 0, 7, ""},
      {"host", TraceKind::kHost, 0, 9000, 0, 0, 7, ""},
  };
  const KernelBreakdown only7 = reduce_device_events(trace, {7});
  EXPECT_DOUBLE_EQ(only7.h_ms, 1.0);
  EXPECT_DOUBLE_EQ(only7.l_ms, 3.0);
  EXPECT_DOUBLE_EQ(only7.reduce_ms, 0.5);
  EXPECT_DOUBLE_EQ(only7.memcpy_ms, 0.25);
  EXPECT_DOUBLE_EQ(only7.other_ms, 0.1);
  EXPECT_EQ(only7.launches, 4u);  // the memcpy is not a launch

  const KernelBreakdown all = reduce_device_events(trace);
  EXPECT_DOUBLE_EQ(all.l_ms, 5.0);
  EXPECT_EQ(all.launches, 5u);
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  SpanRecorder rec;
  const int root = rec.add({"request", 0, 100, -1, 1});
  rec.add({"serve.encode", 10, 20, root, 1});
  rec.add({"serve.roundtrip", 20, 90, root, 1});
  rec.add({"serve.decode", 85, 95, root, 1});  // overlaps the roundtrip
  const auto st = self_times(rec.spans());
  EXPECT_DOUBLE_EQ(st.at("request").total_ms, 0.1);
  EXPECT_DOUBLE_EQ(st.at("request").self_ms, 0.015);  // 100 - (10..95)
  EXPECT_DOUBLE_EQ(st.at("serve.roundtrip").self_ms, 0.07);
  EXPECT_EQ(st.at("request").count, 1u);
  EXPECT_NE(rec.to_json().find("\"name\":\"serve.decode\""), std::string::npos);
}
