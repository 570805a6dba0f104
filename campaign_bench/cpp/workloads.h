// The benchmark's four workloads, each one campaign through the public
// APIs of engine, internet, scanner, dns, report and telemetry:
//
//   sweep    ZMap VN sweep over the IPv4 candidates, then no-SNI
//            handshakes + HTTP HEAD on the compatible responders (the
//            qscanner_cli --all pipeline).
//   sni      SNI handshakes + HTTP HEAD over every (domain, A-record
//            host) pair of the snapshot.
//   dns      A/AAAA/HTTPS resolution of every input list's corpus.
//   hostile  sweep under the hostile fabric, malicious endpoints and two
//            retries, every attempt traced into an in-memory JSON-Lines
//            sink.
//
// One call of run_campaign is one closed-loop campaign: the engine's
// workers each pull their next chunk only after the last one finished.
// The campaign phase is timed from Campaign construction through the
// report merge and render; CSV rendering and digests come after it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "internet/internet.h"
#include "scanner/qscanner.h"
#include "spans.h"
#include "telemetry/metrics.h"

namespace bench {

enum class Kind { kSweep, kSni, kDns, kHostile };

std::optional<Kind> parse_kind(const std::string& name);

/// Sum of every counter whose name starts with `prefix`.
uint64_t counter_sum(const telemetry::MetricsRegistry& registry,
                     const std::string& prefix);

/// Outcome class of one timed attempt: the scanner::QscanOutcome value,
/// or kDnsClass for a DNS resolution.
inline constexpr uint8_t kDnsClass = 0xff;

struct CampaignResult {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  /// Workload targets: sweep candidates, SNI targets or domain names.
  size_t targets = 0;
  /// QScanner wire attempts (retries included), or DNS queries on dns.
  uint64_t attempts = 0;
  /// Merged output rows, and how many of them the scanner's own
  /// counters classified (qscan.outcome.* sum; dns.domains_resolved).
  size_t rows = 0;
  uint64_t classified = 0;
  std::string digest;

  /// One entry per timed scanner call (QScanner::scan_one, or one name
  /// through DnsScanner::scan_list).
  std::vector<double> attempt_us;
  std::vector<uint8_t> attempt_class;

  uint64_t run_start_ns = 0;
  std::vector<ChunkTiming> chunks;
  uint64_t busy_us = 0;
  uint64_t steal_wait_us = 0;
  double straggler_ratio = 1.0;

  /// In-memory qlog sink account (hostile only); sink_ns only when traced.
  uint64_t trace_events = 0;
  uint64_t trace_bytes = 0;
  uint64_t sink_ns = 0;

  /// Campaign::metrics(), the deterministic merged registry.
  telemetry::MetricsRegistry metrics;
  /// Filled only for traced campaigns.
  SpanLog spans;
};

class Workload {
 public:
  Workload(Kind kind, std::shared_ptr<const internet::Snapshot> snapshot);

  size_t targets() const;
  /// The chunk size the engine picks for this workload at `jobs`.
  size_t chunk_size(int jobs) const;

  /// Runs one campaign on `jobs` workers over chunks of `chunk_size`.
  CampaignResult run_campaign(uint64_t seed, int jobs, size_t chunk_size,
                              bool traced) const;

  /// First `count` connection IDs the workload's targets map to, the
  /// inputs of the crypto probes.
  std::vector<std::vector<uint8_t>> sample_dcids(size_t count,
                                                 uint64_t seed) const;

 private:
  struct DnsName {
    size_t list = 0;
    std::string name;
  };

  Kind kind_;
  std::shared_ptr<const internet::Snapshot> snapshot_;
  std::vector<netsim::IpAddress> candidates_;     // sweep, hostile
  std::vector<scanner::QscanTarget> sni_targets_;  // sni
  std::vector<std::string> lists_;                 // dns
  std::vector<DnsName> names_;                     // dns
};

}  // namespace bench
