#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace bench {

size_t SpanLog::add(const Span& span) {
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanLog::append(const SpanLog& other, int64_t parent) {
  const auto offset = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    span.parent = span.parent < 0 ? parent : span.parent + offset;
    spans_.push_back(span);
  }
}

std::vector<uint64_t> self_times_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const auto& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    uint64_t begin = std::max(span.start_ns, parent.start_ns);
    uint64_t end = std::min(span.end_ns, parent.end_ns);
    if (begin < end)
      children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0;
    uint64_t cursor = 0;
    for (auto [begin, end] : intervals) {
      begin = std::max(begin, cursor);
      if (end > begin) covered += end - begin;
      cursor = std::max(cursor, end);
    }
    uint64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration - std::min(duration, covered);
  }
  return self;
}

std::string layer_of(const char* name) {
  std::string full(name);
  return full.substr(0, full.find('.'));
}

namespace {

template <typename KeyOf>
std::map<std::string, LayerTotals> totals(std::span<const Span> spans,
                                          KeyOf key_of) {
  auto self = self_times_ns(spans);
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& t = out[key_of(spans[i])];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace

std::map<std::string, LayerTotals> totals_by_name(
    std::span<const Span> spans) {
  return totals(spans, [](const Span& s) { return std::string(s.name); });
}

std::map<std::string, LayerTotals> totals_by_layer(
    std::span<const Span> spans) {
  return totals(spans, [](const Span& s) { return layer_of(s.name); });
}

std::vector<uint64_t> derived_chunk_starts(
    const std::vector<ChunkTiming>& chunks, uint64_t run_start_ns) {
  std::map<std::thread::id, std::vector<size_t>> by_thread;
  for (size_t c = 0; c < chunks.size(); ++c)
    by_thread[chunks[c].thread].push_back(c);
  std::vector<uint64_t> starts(chunks.size(), run_start_ns);
  for (auto& [thread, indices] : by_thread) {
    std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      return chunks[a].body_start_ns < chunks[b].body_start_ns;
    });
    for (size_t k = 1; k < indices.size(); ++k)
      starts[indices[k]] = chunks[indices[k - 1]].body_end_ns;
  }
  return starts;
}

void write_chrome_trace(std::ostream& out, std::span<const Span> spans) {
  uint64_t origin = UINT64_MAX;
  for (const auto& span : spans) origin = std::min(origin, span.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char id[48] = "";
    if (s.id != kNoTarget)
      std::snprintf(id, sizeof id, ",\"id\":\"c%" PRIu64 ".t%" PRIu64 "\"",
                    s.id >> 32, s.id & 0xffffffffu);
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%" PRId64 "%s}}",
                  i ? "," : "", s.name, layer_of(s.name).c_str(), s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, id);
    out << buf;
  }
  out << "\n]}\n";
}

}  // namespace bench
