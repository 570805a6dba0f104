// cli_common: the campaign flags every scanner CLI (zmap_quic_cli,
// qscanner_cli, dns_scan_cli) shares, and the plumbing around them.
//
//   [--week N] [--jobs N] [--schedule static|dynamic] [--chunk-size N]
//   [--seed N] [--qlog DIR] [--metrics FILE] [--sched-metrics FILE]
//   [--impair PROFILE] [--adversary PROFILE] [--retries N]
//   [--report DIR] [--crypto-backend NAME]
//
// --week picks the calendar week of the synthetic-internet snapshot
// (the Snapshot constructor holds the valid range). --jobs N runs the
// campaign on N worker threads; 0 auto-detects the hardware
// concurrency. The merged output is identical for every N (see
// DESIGN.md "Sharded campaign engine" / "Dynamic chunk scheduler").
// --schedule picks `dynamic` (default: fixed-size chunks of
// --chunk-size targets stolen off a shared cursor; 0 = ~8 chunks per
// worker) or `static` (one balanced shard per worker). --seed is the
// campaign seed. --qlog writes JSON-Lines traces under DIR; --metrics
// writes the merged deterministic counters as JSON; --sched-metrics
// writes the wall-clock scheduler telemetry, which is
// non-deterministic and so kept out of --metrics. --impair overlays a
// fault-fabric profile on every server link, --adversary a
// misbehaving-endpoint profile on every server host (DESIGN.md
// "Adversarial endpoints"). --retries N gives each failed target up to
// N extra attempts. --report writes DIR/report.{json,md} from the
// in-shard report fold. --crypto-backend forces the AES-GCM kernel
// (portable, portable_batched, aesni, auto); output bytes never change.
//
// Integer values must be the whole argument: no sign or space on
// unsigned flags, no trailing junk, nothing past the type's range.
// --seed and --chunk-size also take 0x hex and 0-prefixed octal, as
// strtoull base 0 does. Every bad value throws std::invalid_argument
// with a one-line "--flag: ..." message; each CLI's main prints it and
// exits 2.
#pragma once

#include <climits>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "crypto/cpu.h"
#include "engine/engine.h"
#include "internet/population.h"

namespace cli {

/// Parses all of `text` as an unsigned 64-bit integer. `base` is 10,
/// or 0 for strtoull's prefixes (0x hex, 0 octal).
uint64_t parse_unsigned(std::string_view flag, std::string_view text,
                        int base = 10);

/// Parses all of `text` as a decimal int no smaller than `min`.
int parse_int(std::string_view flag, std::string_view text,
              int min = INT_MIN);

/// The shared flags' parsed values; each CLI sets its own default seed
/// before parsing.
struct CampaignFlags {
  int week = 18;
  int jobs = 1;
  engine::Schedule schedule = engine::Schedule::kDynamic;
  size_t chunk_size = 0;
  uint64_t seed = 0;
  std::string qlog_dir;
  std::string metrics_file;
  std::string sched_metrics_file;
  std::string impair;
  std::string adversary;
  int retries = 0;
  std::string report_dir;
  std::optional<crypto::Backend> crypto_backend;
};

/// Consumes argv[i] (and its value) when it is a shared flag. Returns
/// false for any other argument and for a shared flag missing its
/// value, so the caller falls through to its usage message. Throws on
/// a bad value.
bool parse_campaign_flag(int argc, char** argv, int& i, CampaignFlags& flags);

/// Prints "usage: <synopsis>" and the shared flags to stderr.
void print_usage(const char* synopsis);

/// Checks the parsed flags as a whole: rejects unknown --impair and
/// --adversary profiles (listing the known names), resolves --jobs 0
/// to the hardware concurrency, creates the --qlog root up front and
/// applies --crypto-backend.
void resolve_campaign_flags(CampaignFlags& flags);

/// Campaign options for `flags` over a snapshot of `population` at the
/// flagged week, built here; a week the snapshot rejects throws as a
/// --week error.
engine::CampaignOptions campaign_options(
    const CampaignFlags& flags, const internet::PopulationParams& population);

/// Prints the "# schedule ..." and "# crypto backend: ..." lines.
void print_campaign_summary(const CampaignFlags& flags,
                            const engine::Campaign& campaign);

/// Writes --metrics and --sched-metrics; throws when a file cannot be
/// opened or written in full.
void write_metrics_files(const CampaignFlags& flags,
                         const engine::Campaign& campaign);

}  // namespace cli
