#include "cli_common.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "internet/adversary.h"
#include "internet/internet.h"
#include "netsim/impairment.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cli {
namespace {

[[noreturn]] void invalid_value(std::string_view flag,
                                std::string_view text) {
  throw std::invalid_argument(std::string(flag) + ": invalid value '" +
                              std::string(text) + "'");
}

/// Runs `parse` and prefixes the flag name to any invalid_argument it
/// throws, so every message names the flag it is about.
template <class Parse>
auto with_flag(std::string_view flag, Parse parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(flag) + ": " + e.what());
  }
}

std::string unknown_profile(std::string_view flag, const char* kind,
                            const std::string& name,
                            std::span<const std::string_view> known) {
  std::string message = std::string(flag) + ": unknown " + kind +
                        " profile '" + name + "' (known:";
  for (auto known_name : known) (message += ' ') += known_name;
  return message + ")";
}

void write_json_file(const std::string& path,
                     const telemetry::MetricsRegistry& metrics) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  metrics.write_json(out);
  out.flush();
  if (!out) throw std::runtime_error("error writing " + path);
}

}  // namespace

uint64_t parse_unsigned(std::string_view flag, std::string_view text,
                        int base) {
  std::string_view digits = text;
  if (base == 0) {
    base = 10;
    if (digits.starts_with("0x") || digits.starts_with("0X")) {
      base = 16;
      digits.remove_prefix(2);
    } else if (digits.size() > 1 && digits[0] == '0') {
      base = 8;
      digits.remove_prefix(1);
    }
  }
  // from_chars takes no sign or space for an unsigned type.
  uint64_t value = 0;
  auto [end, error] = std::from_chars(digits.data(),
                                      digits.data() + digits.size(), value,
                                      base);
  if (digits.empty() || error != std::errc{} ||
      end != digits.data() + digits.size())
    invalid_value(flag, text);
  return value;
}

int parse_int(std::string_view flag, std::string_view text, int min) {
  int value = 0;
  auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc{} ||
      end != text.data() + text.size() || value < min)
    invalid_value(flag, text);
  return value;
}

bool parse_campaign_flag(int argc, char** argv, int& i,
                         CampaignFlags& flags) {
  // Every shared flag takes a value.
  if (i + 1 >= argc) return false;
  const std::string_view arg = argv[i];
  const char* value = argv[i + 1];
  if (arg == "--week") {
    flags.week = parse_int(arg, value);
  } else if (arg == "--jobs") {
    flags.jobs = parse_int(arg, value, 0);
  } else if (arg == "--schedule") {
    flags.schedule =
        with_flag(arg, [&] { return engine::parse_schedule(value); });
  } else if (arg == "--chunk-size") {
    flags.chunk_size = parse_unsigned(arg, value, 0);
  } else if (arg == "--seed") {
    flags.seed = parse_unsigned(arg, value, 0);
  } else if (arg == "--qlog") {
    flags.qlog_dir = value;
  } else if (arg == "--metrics") {
    flags.metrics_file = value;
  } else if (arg == "--sched-metrics") {
    flags.sched_metrics_file = value;
  } else if (arg == "--impair") {
    flags.impair = value;
  } else if (arg == "--adversary") {
    flags.adversary = value;
  } else if (arg == "--retries") {
    flags.retries = parse_int(arg, value, 0);
  } else if (arg == "--report") {
    flags.report_dir = value;
  } else if (arg == "--crypto-backend") {
    flags.crypto_backend =
        with_flag(arg, [&] { return crypto::parse_backend(value); });
  } else {
    return false;
  }
  ++i;
  return true;
}

void print_usage(const char* synopsis) {
  std::fprintf(stderr,
               "usage: %s\n"
               "  campaign flags: [--week N] [--jobs N] "
               "[--schedule static|dynamic]\n"
               "    [--chunk-size N] [--seed N] [--qlog DIR] "
               "[--metrics FILE]\n"
               "    [--sched-metrics FILE] [--impair PROFILE] "
               "[--adversary PROFILE]\n"
               "    [--retries N] [--report DIR] [--crypto-backend NAME]\n",
               synopsis);
}

void resolve_campaign_flags(CampaignFlags& flags) {
  if (!flags.impair.empty() && !netsim::find_impairment_profile(flags.impair))
    throw std::invalid_argument(
        unknown_profile("--impair", "impairment", flags.impair,
                        netsim::impairment_profile_names()));
  if (!flags.adversary.empty() &&
      !internet::find_adversary_profile(flags.adversary))
    throw std::invalid_argument(
        unknown_profile("--adversary", "adversary", flags.adversary,
                        internet::adversary_profile_names()));
  if (flags.jobs == 0) {
    // hardware_concurrency() may report 0 on exotic platforms; fall
    // back to the serial path rather than refusing to run.
    unsigned detected = std::thread::hardware_concurrency();
    flags.jobs = detected > 0 ? static_cast<int>(detected) : 1;
    std::fprintf(stderr, "--jobs 0: auto-detected %d worker thread%s\n",
                 flags.jobs, flags.jobs == 1 ? "" : "s");
  }
  if (!flags.qlog_dir.empty()) {
    // Validate the qlog root up front, on the calling thread, so a bad
    // path fails with a clear message before any shard work starts.
    try {
      telemetry::QlogDir probe(flags.qlog_dir);
    } catch (const std::exception& e) {
      throw std::runtime_error("cannot create qlog dir " + flags.qlog_dir +
                               ": " + e.what());
    }
  }
  if (flags.crypto_backend) crypto::set_backend_override(flags.crypto_backend);
}

engine::CampaignOptions campaign_options(
    const CampaignFlags& flags, const internet::PopulationParams& population) {
  engine::CampaignOptions options;
  options.jobs = flags.jobs;
  options.schedule = flags.schedule;
  options.chunk_size = flags.chunk_size;
  options.seed = flags.seed;
  options.week = flags.week;
  options.population = population;
  // One immutable snapshot serves the CLI's planning world and every
  // campaign slice.
  options.snapshot = with_flag("--week", [&] {
    return std::make_shared<const internet::Snapshot>(population, flags.week);
  });
  options.qlog_dir = flags.qlog_dir;
  options.impairment = flags.impair;
  options.adversary = flags.adversary;
  return options;
}

void print_campaign_summary(const CampaignFlags& flags,
                            const engine::Campaign& campaign) {
  const size_t slices = campaign.ranges().size();
  std::fprintf(stderr,
               "# schedule %s: %zu slice%s, %d worker%s, straggler ratio "
               "%.2f\n",
               engine::schedule_name(flags.schedule), slices,
               slices == 1 ? "" : "s", flags.jobs, flags.jobs == 1 ? "" : "s",
               campaign.straggler_ratio());
  std::fprintf(stderr, "# crypto backend: %s\n",
               crypto::backend_name(crypto::resolve_backend()));
}

void write_metrics_files(const CampaignFlags& flags,
                         const engine::Campaign& campaign) {
  if (!flags.metrics_file.empty())
    write_json_file(flags.metrics_file, campaign.metrics());
  if (!flags.sched_metrics_file.empty())
    write_json_file(flags.sched_metrics_file, campaign.scheduler_metrics());
}

}  // namespace cli
