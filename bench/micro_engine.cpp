// micro_engine: throughput of the campaign engine on a 10'000-target
// stateful (QScanner) campaign.
//
//   ./micro_engine [output.json]
//
// Two sections, both written to JSON (default: BENCH_engine.json in
// the working directory):
//
//   * the PR-3 scaling sweep -- the clean-fabric campaign at
//     --jobs 1/2/4/8 under the dynamic default (wall-clock,
//     targets/sec, speedup over serial), after one untimed jobs-1
//     warm-up campaign so the timed serial row is not the process's
//     first;
//   * the scheduler section -- the same 10k list under the `hostile`
//     impairment profile at --jobs 8, once per schedule, recording
//     throughput and the busy-time straggler ratio (max/mean across
//     workers) from the scheduler telemetry.
//
// Worker slices are lock-free and independent, so throughput scales
// with physical cores; on a single-core host every speedup column
// reads ~1.0x and only the straggler ratios remain meaningful.
//
// The dynamic >= 1.2x static acceptance gate is enforced only when the
// CPUs this process may run on (its affinity set, as nproc counts
// them) number at least the hostile section's 8 workers. With c CPUs,
// total work T and static shard imbalance r (max/mean shard cost),
// static's 8 threads time-share the c CPUs, so its wall time is about
// max(T/c, r*T/8); no schedule beats T/c. Hence dynamic/static <=
// max(1, r*c/8): with r ~1.1-1.5 the bound is 1.0 at c = 4 and below,
// and the ratio there measures time-slicing noise and scheduler
// overhead, not the scheduler's benefit. Both the CPU count and the
// gate's state are recorded in the JSON. The run also re-checks the
// determinism contract: every jobs value and both schedules must agree
// on attempts and Table 3 outcome counts, or the bench aborts.
#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "internet/internet.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"

namespace {

constexpr uint64_t kSeed = 0x5ca9;
constexpr int kWeek = 18;
constexpr size_t kTargets = 10'000;
constexpr internet::PopulationParams kPopulation{.dns_corpus_scale = 0.01};
constexpr int kHostileJobs = 8;

/// Logical CPUs this process may run on: the affinity set where the
/// platform exposes one, else the hardware thread count.
unsigned usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

struct RunResult {
  int jobs = 1;
  engine::Schedule schedule = engine::Schedule::kDynamic;
  double wall_ms = 0;
  double targets_per_sec = 0;
  double straggler = 1.0;
  uint64_t attempts = 0;
  std::map<std::string, uint64_t> outcomes;
};

std::shared_ptr<const internet::Snapshot> shared_snapshot() {
  static auto snapshot =
      std::make_shared<const internet::Snapshot>(kPopulation, kWeek);
  return snapshot;
}

RunResult run_campaign(const std::vector<scanner::QscanTarget>& targets,
                       int jobs, engine::Schedule schedule,
                       const std::string& impairment) {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = kSeed;
  options.schedule = schedule;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  options.impairment = impairment;
  engine::Campaign campaign(options);

  std::vector<uint64_t> shard_attempts(campaign.slot_count(targets.size()),
                                       0);
  auto start = std::chrono::steady_clock::now();
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      qscanner.scan_one(targets[i]);
    }
    shard_attempts[static_cast<size_t>(env.shard_index)] =
        qscanner.attempts();
  });
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);

  RunResult result;
  result.jobs = jobs;
  result.schedule = schedule;
  result.wall_ms = elapsed.count();
  result.targets_per_sec =
      static_cast<double>(targets.size()) / (elapsed.count() / 1000.0);
  result.straggler = campaign.straggler_ratio();
  for (uint64_t a : shard_attempts) result.attempts += a;
  for (size_t i = 0; i < scanner::kQscanOutcomeCount; ++i) {
    auto name = scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    const auto* counter =
        campaign.metrics().find_counter("qscan.outcome." + name);
    result.outcomes[name] = counter ? counter->value() : 0;
  }

  // The observability slice must actually be populated: every worker
  // reports its chunk and busy counters into the (separate,
  // wall-clock) scheduler registry.
  const bool workers =
      campaign.scheduler_metrics().gauges().count("engine.workers") > 0;
  const auto* chunks = campaign.scheduler_metrics().find_counter(
      "engine.chunks_run.worker00");
  const auto* busy = campaign.scheduler_metrics().find_counter(
      "engine.busy_us.worker00");
  if (!workers || !chunks || !busy) {
    std::fprintf(stderr, "FATAL: scheduler telemetry missing\n");
    std::exit(1);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  const unsigned cores = std::thread::hardware_concurrency();
  const unsigned cpus = usable_cpus();

  netsim::EventLoop planning_loop;
  internet::Internet planning(shared_snapshot(), planning_loop);
  std::vector<scanner::QscanTarget> base;
  for (const auto& host : planning.population().hosts()) {
    if (!host.address.is_v4()) continue;
    base.push_back({host.address, std::nullopt,
                    host.advertised_versions});
  }
  std::vector<scanner::QscanTarget> targets;
  targets.reserve(kTargets);
  for (size_t i = 0; i < kTargets; ++i)
    targets.push_back(base[i % base.size()]);

  std::printf("micro_engine: %zu targets, %u hardware threads, %u usable\n",
              targets.size(), cores, cpus);

  // Untimed jobs-1 warm-up. The process's first campaign pays one-time
  // costs (page faults, allocator growth, the process-wide crypto
  // constants) that would inflate the timed jobs=1 row and every
  // speedup read against it. Its outcome counts are the determinism
  // reference for the sweep.
  const RunResult reference =
      run_campaign(targets, 1, engine::Schedule::kDynamic, "");

  // Section 1: clean-fabric scaling sweep under the dynamic default.
  std::vector<RunResult> results;
  for (int jobs : {1, 2, 4, 8}) {
    results.push_back(
        run_campaign(targets, jobs, engine::Schedule::kDynamic, ""));
    const auto& r = results.back();
    std::printf("  jobs=%d  %8.1f ms  %9.0f targets/s  %.2fx\n", r.jobs,
                r.wall_ms, r.targets_per_sec,
                results.front().wall_ms / r.wall_ms);
  }

  // Section 2: hostile profile at --jobs 8, static vs dynamic. The
  // impaired campaign is where per-target cost skews and the static
  // partition leaves workers idle behind stragglers.
  std::printf("  hostile profile, jobs=%d:\n", kHostileJobs);
  auto hostile_static = run_campaign(targets, kHostileJobs,
                                     engine::Schedule::kStatic, "hostile");
  auto hostile_dynamic = run_campaign(targets, kHostileJobs,
                                      engine::Schedule::kDynamic, "hostile");
  for (const auto* r : {&hostile_static, &hostile_dynamic})
    std::printf("    %-7s %8.1f ms  %9.0f targets/s  straggler %.2f\n",
                engine::schedule_name(r->schedule), r->wall_ms,
                r->targets_per_sec, r->straggler);
  const double dynamic_over_static =
      hostile_static.wall_ms / hostile_dynamic.wall_ms;

  // Determinism cross-check: any drift voids the numbers above. The
  // clean sweep must agree with the serial warm-up; the two hostile
  // runs must agree with each other (the schedule moves work between
  // workers, never between outcome classes).
  for (const auto& r : results) {
    if (r.attempts != reference.attempts ||
        r.outcomes != reference.outcomes) {
      std::fprintf(stderr,
                   "FATAL: jobs=%d diverged from serial outcome counts\n",
                   r.jobs);
      return 1;
    }
  }
  if (hostile_dynamic.attempts != hostile_static.attempts ||
      hostile_dynamic.outcomes != hostile_static.outcomes) {
    std::fprintf(stderr,
                 "FATAL: hostile outcome counts diverged between "
                 "schedules\n");
    return 1;
  }

  // Acceptance gate: dynamic must beat static by >= 1.2x on the
  // hostile campaign, wherever each static shard has a CPU of its own.
  // With fewer CPUs than workers the threads time-share the CPUs and
  // no schedule can beat static by more than max(1, r*c/8) (see the
  // header), so the gate would measure the OS scheduler, not ours.
  const bool gate = cpus >= static_cast<unsigned>(kHostileJobs);
  if (gate && dynamic_over_static < 1.2) {
    std::fprintf(stderr,
                 "FATAL: hostile dynamic/static = %.2fx, need >= 1.2x\n",
                 dynamic_over_static);
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  char line[256];
  out << "{\n  \"bench\": \"micro_engine\",\n"
      << "  \"targets\": " << targets.size() << ",\n"
      << "  \"attempts\": " << reference.attempts << ",\n"
      << "  \"hardware_concurrency\": " << cores << ",\n"
      << "  \"usable_cpus\": " << cpus << ",\n"
      << "  \"schedule\": \"dynamic\",\n"
      << "  \"warmup\": \"one untimed jobs=1 campaign before the sweep\",\n"
      << "  \"note\": \"worker slices are lock-free and independent; "
         "wall-clock speedup tracks physical cores (a 1-core host "
         "serializes the worker threads)\",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::snprintf(line, sizeof line,
                  "    {\"jobs\": %d, \"wall_ms\": %.1f, "
                  "\"targets_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                  r.jobs, r.wall_ms, r.targets_per_sec,
                  results.front().wall_ms / r.wall_ms,
                  i + 1 < results.size() ? "," : "");
    out << line;
  }
  out << "  ],\n  \"hostile_jobs" << kHostileJobs << "\": {\n";
  for (const auto* r : {&hostile_static, &hostile_dynamic}) {
    std::snprintf(line, sizeof line,
                  "    \"%s\": {\"wall_ms\": %.1f, \"targets_per_sec\": "
                  "%.0f, \"straggler_ratio\": %.3f},\n",
                  engine::schedule_name(r->schedule), r->wall_ms,
                  r->targets_per_sec, r->straggler);
    out << line;
  }
  char gate_state[64];
  if (gate)
    std::snprintf(gate_state, sizeof gate_state, "enforced (>= 1.2x)");
  else
    std::snprintf(gate_state, sizeof gate_state,
                  "skipped (%u CPUs < %d workers)", cpus, kHostileJobs);
  std::snprintf(line, sizeof line,
                "    \"dynamic_over_static\": %.3f,\n"
                "    \"perf_gate\": \"%s\"\n  }\n}\n",
                dynamic_over_static, gate_state);
  out << line;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
