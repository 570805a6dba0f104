// Unit tests for the benchmark's own arithmetic: the tail-percentile
// rule, span self time, chunk-start derivation, the Chrome trace
// writer, and the output digest check.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace bench {
namespace {

std::vector<double> one_to(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(100), 99), 99);
  EXPECT_EQ(percentile(one_to(100), 100), 100);
  EXPECT_EQ(percentile(one_to(7), 50), 4);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(mean({1, 2, 6}), 3);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(20, 50), 10u);
  EXPECT_EQ(samples_beyond(0, 99), 0u);
}

TEST(Percentile, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(100000, 99), 99.0);
  EXPECT_EQ(tail_percentile(1000, 99), 99.0);
  // 999 samples leave only 9 beyond p99: fall back to p95.
  EXPECT_EQ(tail_percentile(999, 99), 95.0);
  EXPECT_EQ(tail_percentile(100, 99), 90.0);
  EXPECT_EQ(tail_percentile(20, 99), 50.0);
  EXPECT_FALSE(tail_percentile(19, 99).has_value());
  // Never above the wanted percentile, even with samples to spare.
  EXPECT_EQ(tail_percentile(1'000'000, 99), 99.0);

  Tail t = tail(one_to(999), 99);
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 950);
  EXPECT_EQ(t.samples, 999u);
  EXPECT_EQ(tail(one_to(5), 99).percentile, 0);
}

TEST(Spans, SelfTimeSubtractsCoveredPartOfChildren) {
  std::vector<Span> spans = {
      {"bench.campaign", 0, 100, -1},
      {"qscan.scan_one", 10, 30, 0},
      {"report.add", 20, 50, 0},   // overlaps the first child
      {"zmap.scan", 90, 120, 0},   // clipped to the parent's end
      {"crypto.probe", 12, 14, 1}, // grandchild: only its parent shrinks
  };
  auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 18u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 2u);
}

TEST(Spans, ParallelChildrenCoveringParentLeaveNoSelfTime) {
  std::vector<Span> spans = {
      {"bench.campaign", 0, 100, -1},
      {"engine.chunk", 0, 60, 0, kNoTarget, 1},
      {"engine.chunk", 0, 100, 0, kNoTarget, 2},
      {"engine.chunk", 40, 100, 0, kNoTarget, 3},
  };
  EXPECT_EQ(self_times_ns(spans)[0], 0u);
  auto layers = totals_by_layer(spans);
  EXPECT_EQ(layers["engine"].count, 3u);
  EXPECT_EQ(layers["engine"].total_ns, 220u);
  EXPECT_EQ(layers["bench"].self_ns, 0u);
}

TEST(Spans, AppendRebasesParents) {
  SpanLog main;
  main.add({"bench.campaign", 0, 10, -1});
  SpanLog chunk;
  chunk.add({"engine.chunk", 1, 9, -1});
  chunk.add({"qscan.scan_one", 2, 3, 0, target_id(4, 7)});
  main.append(chunk, 0);
  ASSERT_EQ(main.spans().size(), 3u);
  EXPECT_EQ(main.spans()[1].parent, 0);
  EXPECT_EQ(main.spans()[2].parent, 1);
  EXPECT_EQ(main.spans()[2].id >> 32, 4u);
  EXPECT_EQ(main.spans()[2].id & 0xffffffffu, 7u);
}

TEST(Spans, ChunkStartsFollowPreviousBodyOnSameThread) {
  std::thread::id a = std::this_thread::get_id();
  std::thread::id b;  // a distinct id: the "not a thread" value
  std::vector<ChunkTiming> chunks = {
      {a, 110, 200}, {b, 105, 150}, {a, 230, 300}, {b, 160, 400}};
  auto starts = derived_chunk_starts(chunks, 100);
  EXPECT_EQ(starts, (std::vector<uint64_t>{100, 100, 200, 150}));
}

TEST(Spans, ChromeTraceCarriesIdsAndParents) {
  std::vector<Span> spans = {
      {"bench.campaign", 1000, 5000, -1},
      {"qscan.scan_one", 2000, 2500, 0, target_id(3, 9), 2},
  };
  std::ostringstream out;
  write_chrome_trace(out, spans);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"qscan.scan_one\",\"cat\":\"qscan\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":0.500"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0,\"id\":\"c3.t9\""), std::string::npos);
}

TEST(Digest, PerturbedRowIsCaught) {
  const std::vector<std::string> rows = {
      "saddr,sni,outcome\n", "192.0.2.1,,Success\n", "192.0.2.2,,Timeout\n"};
  auto digest_of = [](const std::vector<std::string>& lines) {
    Digest d;
    for (const auto& line : lines) d.update(line);
    return d.hex();
  };
  auto perturbed = rows;
  perturbed[2] = "192.0.2.2,,Crypto Error (0x128)\n";
  const std::string good = digest_of(rows);
  EXPECT_EQ(good.size(), 16u);
  EXPECT_NE(digest_of(perturbed), good);

  std::vector<std::string> set = {good, good, digest_of(perturbed), good};
  EXPECT_EQ(disagreeing_runs(set), (std::vector<size_t>{2}));
  set[2] = good;
  EXPECT_TRUE(disagreeing_runs(set).empty());
  // The perturbed run comes first: the majority still decides.
  set[0] = digest_of(perturbed);
  EXPECT_EQ(disagreeing_runs(set), (std::vector<size_t>{0}));
}

}  // namespace
}  // namespace bench
