// Sample statistics and output digests for the campaign benchmark.
// Everything here is pure arithmetic over caller data, so the unit
// tests in tests/test_bench_core.cpp pin it without running a campaign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty input.
double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& values);

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the
/// ceil(p/100 * n)-th smallest value. 0 for an empty input.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank percentile `p` of n samples.
size_t samples_beyond(size_t n, double p);

/// The tail-percentile rule: the largest percentile p <= `wanted` that
/// leaves at least `min_beyond` samples above it, searched over the
/// ladder 99.9, 99, 95, 90, 75, 50. nullopt when even the median has
/// fewer than `min_beyond` samples beyond it.
std::optional<double> tail_percentile(size_t n, double wanted,
                                      size_t min_beyond = 10);

/// A tail statistic reported under the rule above: the percentile used
/// (0 when none qualifies), its value, and the sample count.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};
Tail tail(std::vector<double> samples, double wanted);

/// Incremental 64-bit FNV-1a over output bytes. Independent of the
/// repository's own crypto so a digest cannot be wrong in the same way
/// as the code it checks.
class Digest {
 public:
  void update(std::string_view bytes);
  uint64_t value() const { return hash_; }
  std::string hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Indices of runs whose digest differs from the most common digest of
/// the set (ties keep the earliest run's digest as the reference). The
/// benchmark counts every target of such a run as failed.
std::vector<size_t> disagreeing_runs(std::span<const std::string> digests);

}  // namespace bench
