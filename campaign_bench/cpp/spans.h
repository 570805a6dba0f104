// Wall-clock spans recorded by the benchmark around each call it makes
// into a layer of the repository (snapshot build, chunk world, ZMap
// sweep, QScanner attempt, DNS scan, report add/merge/render, crypto
// probes). Spans live in memory and are written out once, as Chrome
// trace-event JSON (chrome://tracing, Perfetto and speedscope open it),
// after the measured work is over. A span's name starts with its layer
// ("qscan.scan_one" belongs to layer "qscan").
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace bench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Identifier shared by every span of one target: chunk index in the
/// high half, target index within the chunk in the low half.
inline uint64_t target_id(size_t chunk, size_t index) {
  return (static_cast<uint64_t>(chunk) << 32) | static_cast<uint32_t>(index);
}
inline constexpr uint64_t kNoTarget = ~0ull;

struct Span {
  const char* name = "";  // static string, "<layer>.<what>"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index in the same log, -1 for a root
  uint64_t id = kNoTarget;
  uint32_t tid = 0;
};

/// Single-writer span buffer. Parallel chunk bodies each own one and
/// the caller appends them in chunk order after the run barrier.
class SpanLog {
 public:
  /// Records a finished span and returns its index.
  size_t add(const Span& span);
  /// Appends every span of `other`; its roots become children of
  /// `parent` and its internal parent links are re-based.
  void append(const SpanLog& other, int64_t parent);

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each
/// other -- parallel chunks under one campaign span -- and are clipped
/// to the parent's interval).
std::vector<uint64_t> self_times_ns(std::span<const Span> spans);

/// The layer a span belongs to: its name up to the first '.'.
std::string layer_of(const char* name);

struct LayerTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};
/// Per-span-name totals (count, summed duration, summed self time).
std::map<std::string, LayerTotals> totals_by_name(std::span<const Span> spans);
/// Per-layer totals (same, grouped by layer_of).
std::map<std::string, LayerTotals> totals_by_layer(
    std::span<const Span> spans);

/// Wall times of one chunk body, stamped from inside the body.
struct ChunkTiming {
  std::thread::id thread;
  uint64_t body_start_ns = 0;
  uint64_t body_end_ns = 0;
};

/// Start of each chunk as seen from outside the engine: the end of the
/// previous body on the same thread, or the campaign's run start for a
/// thread's first chunk. The gap to the body start is the chunk's world
/// build (plus the previous world's teardown and the steal).
std::vector<uint64_t> derived_chunk_starts(
    const std::vector<ChunkTiming>& chunks, uint64_t run_start_ns);

/// Chrome trace-event JSON ("X" complete events, microsecond
/// timestamps relative to the earliest span). args carry the span
/// index, the parent index and the target id ("c<chunk>.t<index>").
void write_chrome_trace(std::ostream& out, std::span<const Span> spans);

}  // namespace bench
