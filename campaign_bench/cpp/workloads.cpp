#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "engine/engine.h"
#include "report/report.h"
#include "scanner/dns_scan.h"
#include "scanner/zmap.h"
#include "stats.h"
#include "telemetry/trace.h"

namespace bench {
namespace {

uint64_t cpu_now_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

// The in-memory qlog of one chunk: every attempt's JSON-Lines trace
// appended to one string stream, in attempt order.
struct ChunkTrace {
  std::ostringstream out;
  uint64_t events = 0;
  uint64_t ns = 0;
};

class MemoryQlogSink : public telemetry::TraceSink {
 public:
  MemoryQlogSink(ChunkTrace& trace, const std::string& label, bool timed)
      : trace_(trace), inner_(trace.out, label), timed_(timed) {}

  void on_event(const telemetry::TraceEvent& event) override {
    ++trace_.events;
    if (!timed_) {
      inner_.on_event(event);
      return;
    }
    uint64_t t0 = now_ns();
    inner_.on_event(event);
    trace_.ns += now_ns() - t0;
  }

 private:
  ChunkTrace& trace_;
  telemetry::JsonLinesSink inner_;
  bool timed_;
};

// Per-chunk state a body fills; each chunk owns exactly one slot.
struct Slot {
  std::vector<scanner::QscanResult> rows;
  std::vector<dns::BulkRecord> records;  // dns rows
  std::vector<size_t> record_list;       // dns: list index per record
  uint64_t attempts = 0;
  std::vector<double> attempt_us;
  std::vector<uint8_t> attempt_class;
  ChunkTiming timing;
  SpanLog spans;
  ChunkTrace trace;
};

std::string join_addresses(const std::vector<netsim::IpAddress>& addrs) {
  std::string out;
  for (const auto& addr : addrs) {
    if (!out.empty()) out += ' ';
    out += addr.to_string();
  }
  return out;
}

}  // namespace

uint64_t counter_sum(const telemetry::MetricsRegistry& registry,
                     const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [name, counter] : registry.counters())
    if (name.compare(0, prefix.size(), prefix) == 0) sum += counter.value();
  return sum;
}

std::optional<Kind> parse_kind(const std::string& name) {
  if (name == "sweep") return Kind::kSweep;
  if (name == "sni") return Kind::kSni;
  if (name == "dns") return Kind::kDns;
  if (name == "hostile") return Kind::kHostile;
  return std::nullopt;
}

Workload::Workload(Kind kind,
                   std::shared_ptr<const internet::Snapshot> snapshot)
    : kind_(kind), snapshot_(std::move(snapshot)) {
  netsim::EventLoop loop;
  internet::Internet planning(snapshot_, loop);
  const auto& pop = planning.population();
  switch (kind_) {
    case Kind::kSweep:
    case Kind::kHostile:
      candidates_ = planning.zmap_candidates_v4();
      break;
    case Kind::kSni:
      for (const auto& domain : pop.domains())
        for (uint32_t host : domain.v4_hosts)
          sni_targets_.push_back(
              {pop.hosts()[host].address, domain.name, {}});
      break;
    case Kind::kDns:
      for (const auto& list : pop.lists()) {
        lists_.push_back(list.name);
        for (auto& name : planning.list_corpus(list.name))
          names_.push_back({lists_.size() - 1, std::move(name)});
      }
      break;
  }
}

size_t Workload::targets() const {
  switch (kind_) {
    case Kind::kSni:
      return sni_targets_.size();
    case Kind::kDns:
      return names_.size();
    default:
      return candidates_.size();
  }
}

size_t Workload::chunk_size(int jobs) const {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.population = snapshot_->params();
  options.snapshot = snapshot_;
  return engine::Campaign(options).resolved_chunk_size(targets());
}

std::vector<std::vector<uint8_t>> Workload::sample_dcids(
    size_t count, uint64_t seed) const {
  std::vector<std::vector<uint8_t>> out;
  for (size_t i = 0; i < count; ++i) {
    std::string key;
    if (kind_ == Kind::kSni && !sni_targets_.empty())
      key = sni_targets_[i % sni_targets_.size()].address.to_string();
    else if (kind_ == Kind::kDns && !names_.empty())
      key = names_[i % names_.size()].name;
    else if (!candidates_.empty())
      key = candidates_[i % candidates_.size()].to_string();
    Digest digest;
    digest.update(key);
    uint64_t h = digest.value() ^ (seed + i * 0x9e3779b97f4a7c15ull);
    std::vector<uint8_t> dcid(8);
    for (auto& byte : dcid) {
      byte = static_cast<uint8_t>(h);
      h = (h >> 8) | (h << 56);
    }
    out.push_back(std::move(dcid));
  }
  return out;
}

CampaignResult Workload::run_campaign(uint64_t seed, int jobs,
                                      size_t chunk_size, bool traced) const {
  const bool hostile = kind_ == Kind::kHostile;
  const bool sweep_like = kind_ == Kind::kSweep || hostile;
  CampaignResult result;
  result.targets = targets();

  const uint64_t wall0 = now_ns();
  const uint64_t cpu0 = cpu_now_ns();

  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = seed;
  options.chunk_size = chunk_size;
  options.week = 18;
  options.population = snapshot_->params();
  options.snapshot = snapshot_;
  if (hostile) {
    options.impairment = "hostile";
    options.adversary = "malicious";
  }
  engine::Campaign campaign(options);
  const size_t slots = campaign.slot_count(result.targets);

  std::vector<Slot> slot(slots);
  engine::ShardFold<report::ReportAccumulator> fold(slots, [this] {
    return report::ReportAccumulator(kind_ == Kind::kDns ? "dns"
                                                         : "qscanner");
  });

  // Times one call into a layer; with tracing on it also records the
  // span under the chunk span (index 0 of the slot's log).
  auto timed = [traced](Slot& s, const char* name, uint64_t id, auto&& call) {
    uint64_t t0 = now_ns();
    call();
    uint64_t t1 = now_ns();
    if (traced) s.spans.add({name, t0, t1, 0, id, 0});
    return t1 - t0;
  };

  auto qscan_options = [&](engine::ShardEnv& env, Slot& s) {
    scanner::QscanOptions q;
    q.send_http_head = true;
    q.seed = env.seed;
    q.metrics = env.metrics;
    if (hostile) {
      q.retry.max_attempts = 3;
      ChunkTrace* trace = &s.trace;
      q.trace_factory = [trace, traced](const std::string& label)
          -> std::unique_ptr<telemetry::TraceSink> {
        uint64_t t0 = traced ? now_ns() : 0;
        auto sink = std::make_unique<MemoryQlogSink>(*trace, label, traced);
        if (traced) trace->ns += now_ns() - t0;
        return sink;
      };
    }
    return q;
  };

  auto scan_targets = [&](engine::ShardEnv& env, Slot& s,
                          scanner::QScanner& qscanner,
                          auto&& targets_in_chunk) {
    const auto& registry = env.internet->population().as_registry();
    auto& acc = fold.slot(env.shard_index);
    size_t index = 0;
    for (const scanner::QscanTarget& target : targets_in_chunk) {
      const uint64_t id = target_id(static_cast<size_t>(env.shard_index),
                                    index++);
      if (!qscanner.compatible(target)) continue;
      scanner::QscanResult row;
      uint64_t ns = timed(s, "qscan.scan_one", id,
                          [&] { row = qscanner.scan_one(target); });
      s.attempt_us.push_back(static_cast<double>(ns) / 1e3);
      s.attempt_class.push_back(static_cast<uint8_t>(row.outcome));
      timed(s, "report.add", id, [&] {
        acc.add_row(report::features_of(row),
                    registry.asn_for(row.target.address));
      });
      s.rows.push_back(std::move(row));
    }
    s.attempts = qscanner.attempts();
  };

  auto body = [&](engine::ShardEnv& env) {
    Slot& s = slot[static_cast<size_t>(env.shard_index)];
    s.timing.thread = std::this_thread::get_id();
    s.timing.body_start_ns = now_ns();
    if (traced)
      s.spans.add({"engine.chunk", s.timing.body_start_ns, 0, -1,
                   kNoTarget, 0});
    fold.slot(env.shard_index).attach_metrics(env.metrics);
    const auto& range = env.range;

    if (sweep_like) {
      scanner::ZmapOptions z;
      z.seed = env.seed;
      z.metrics = env.metrics;
      scanner::ZmapQuicScanner zmap(env.internet->network(), std::move(z));
      std::vector<scanner::ZmapHit> hits;
      timed(s, "zmap.scan", kNoTarget, [&] {
        hits = zmap.scan(std::span<const netsim::IpAddress>(
            candidates_.data() + range.begin, range.size()));
      });
      scanner::QScanner qscanner(env.internet->network(),
                                 qscan_options(env, s));
      std::vector<scanner::QscanTarget> targets;
      targets.reserve(hits.size());
      for (auto& hit : hits)
        targets.push_back({hit.address, std::nullopt, std::move(hit.versions)});
      scan_targets(env, s, qscanner, targets);
    } else if (kind_ == Kind::kSni) {
      scanner::QScanner qscanner(env.internet->network(),
                                 qscan_options(env, s));
      scan_targets(env, s, qscanner,
                   std::span<const scanner::QscanTarget>(
                       sni_targets_.data() + range.begin, range.size()));
    } else {
      scanner::DnsScanner dns(env.internet->zones(), env.metrics);
      auto& acc = fold.slot(env.shard_index);
      for (size_t i = range.begin; i < range.end; ++i) {
        const uint64_t id =
            target_id(static_cast<size_t>(env.shard_index), i - range.begin);
        const std::string& list = lists_[names_[i].list];
        scanner::DnsListScan scan;
        uint64_t ns = timed(s, "dns.scan_list", id, [&] {
          scan = dns.scan_list(
              list, std::span<const std::string>(&names_[i].name, 1));
        });
        s.attempt_us.push_back(static_cast<double>(ns) / 1e3);
        s.attempt_class.push_back(kDnsClass);
        for (auto& record : scan.records) {
          timed(s, "report.add", id, [&] { acc.add_dns_record(list, record); });
          s.records.push_back(std::move(record));
          s.record_list.push_back(names_[i].list);
        }
      }
      s.attempts = dns.queries_sent();
    }
    s.timing.body_end_ns = now_ns();
    if (traced) s.spans.spans()[0].end_ns = s.timing.body_end_ns;
  };

  result.run_start_ns = now_ns();
  campaign.run(result.targets, body);

  // Merge rows in the CLIs' order: address order for the sweep (per
  // chunk hit lists are address-sorted), target order otherwise.
  std::vector<scanner::QscanResult> rows;
  if (kind_ != Kind::kDns) {
    std::vector<std::vector<scanner::QscanResult>> per_chunk;
    for (auto& s : slot) per_chunk.push_back(std::move(s.rows));
    rows = sweep_like
               ? engine::merge_sorted_shards(
                     std::move(per_chunk),
                     [](const scanner::QscanResult& a,
                        const scanner::QscanResult& b) {
                       return a.target.address < b.target.address;
                     })
               : engine::concat_shards(std::move(per_chunk));
  }

  SpanLog tail;
  report::ReportAccumulator merged;
  std::ostringstream json;
  std::ostringstream markdown;
  {
    uint64_t t0 = now_ns();
    merged = fold.merged();
    uint64_t t1 = now_ns();
    report::write_report_json(json, merged);
    report::write_report_markdown(markdown, merged);
    uint64_t t2 = now_ns();
    if (traced) {
      tail.add({"report.merge", t0, t1, -1, kNoTarget, 0});
      tail.add({"report.render", t1, t2, -1, kNoTarget, 0});
    }
  }
  result.wall_ns = now_ns() - wall0;
  result.cpu_ns = cpu_now_ns() - cpu0;

  // --- untimed: output rendering, digest, accounting ---
  Digest digest;
  if (kind_ == Kind::kDns) {
    digest.update("list,domain,a,aaaa,https_alpn,ipv4_hints,ipv6_hints\n");
    for (auto& s : slot) {
      for (size_t r = 0; r < s.records.size(); ++r) {
        const auto& record = s.records[r];
        std::string alpn;
        std::vector<netsim::IpAddress> hints4, hints6;
        for (const auto& svcb : record.https) {
          for (const auto& token : svcb.alpn) {
            if (!alpn.empty()) alpn += ' ';
            alpn += token;
          }
          hints4.insert(hints4.end(), svcb.ipv4_hints.begin(),
                        svcb.ipv4_hints.end());
          hints6.insert(hints6.end(), svcb.ipv6_hints.begin(),
                        svcb.ipv6_hints.end());
        }
        digest.update(lists_[s.record_list[r]] + "," + record.domain + "," +
                      join_addresses(record.a) + "," +
                      join_addresses(record.aaaa) + "," + alpn + "," +
                      join_addresses(hints4) + "," + join_addresses(hints6) +
                      "\n");
      }
    }
    result.rows = result.targets;
    result.classified = counter_sum(campaign.metrics(), "dns.domains_resolved");
  } else {
    digest.update(report::kQscanCsvHeader);
    digest.update("\n");
    for (const auto& row : rows) {
      if (row.outcome >= scanner::QscanOutcome::kCount)
        throw std::logic_error("row outside every outcome class");
      digest.update(report::to_csv_row(report::features_of(row)));
      digest.update("\n");
    }
    result.rows = rows.size();
    result.classified = counter_sum(campaign.metrics(), "qscan.outcome.");
  }
  digest.update(json.str());
  digest.update(markdown.str());
  for (auto& s : slot) {
    result.attempts += s.attempts;
    result.attempt_us.insert(result.attempt_us.end(), s.attempt_us.begin(),
                             s.attempt_us.end());
    result.attempt_class.insert(result.attempt_class.end(),
                                s.attempt_class.begin(),
                                s.attempt_class.end());
    result.chunks.push_back(s.timing);
    if (hostile) {
      std::string qlog = s.trace.out.str();
      digest.update(qlog);
      result.trace_bytes += qlog.size();
      result.trace_events += s.trace.events;
      result.sink_ns += s.trace.ns;
    }
  }
  result.digest = digest.hex();
  result.metrics = campaign.metrics();

  const auto& sched = campaign.scheduler_metrics();
  result.busy_us = counter_sum(sched, "engine.busy_us.");
  result.steal_wait_us = counter_sum(sched, "engine.steal_wait_us.");
  result.straggler_ratio = campaign.straggler_ratio();

  if (traced) {
    // Thread ids become small per-campaign numbers (0 = calling thread)
    // so the trace viewer shows one row per worker.
    std::map<std::thread::id, uint32_t> tids{{std::this_thread::get_id(), 0}};
    for (const auto& s : slot)
      tids.emplace(s.timing.thread, static_cast<uint32_t>(tids.size()));
    auto starts = derived_chunk_starts(result.chunks, result.run_start_ns);
    auto& log = result.spans;
    log.add({"bench.campaign", wall0, wall0 + result.wall_ns, -1, kNoTarget, 0});
    for (size_t c = 0; c < slot.size(); ++c) {
      const uint32_t tid = tids[slot[c].timing.thread];
      auto& spans = slot[c].spans.spans();
      spans[0].start_ns = starts[c];
      for (auto& span : spans) span.tid = tid;
      const auto chunk = static_cast<int64_t>(log.spans().size());
      log.append(slot[c].spans, 0);
      log.add({"internet.world", starts[c], slot[c].timing.body_start_ns,
               chunk, kNoTarget, tid});
    }
    log.append(tail, 0);
  }
  return result;
}

}  // namespace bench
