#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace bench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

// 1-based nearest rank, clamped to [1, n].
size_t nearest_rank(size_t n, double p) {
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t samples_beyond(size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::optional<double> tail_percentile(size_t n, double wanted,
                                      size_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > wanted) continue;
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return std::nullopt;
}

Tail tail(std::vector<double> samples, double wanted) {
  Tail out;
  out.samples = samples.size();
  if (auto p = tail_percentile(samples.size(), wanted)) {
    out.percentile = *p;
    out.value = percentile(std::move(samples), *p);
  }
  return out;
}

void Digest::update(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

std::vector<size_t> disagreeing_runs(std::span<const std::string> digests) {
  std::map<std::string, size_t> counts;
  for (const auto& d : digests) ++counts[d];
  std::string reference;
  size_t best = 0;
  for (const auto& d : digests) {
    if (counts[d] > best) {
      best = counts[d];
      reference = d;
    }
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < digests.size(); ++i)
    if (digests[i] != reference) out.push_back(i);
  return out;
}

}  // namespace bench
