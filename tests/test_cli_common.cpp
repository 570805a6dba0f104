// Tests for the scanner CLIs' shared campaign-flag layer
// (tools/cli_common.h): strict whole-string integer parsing, the shared
// flag dispatch, and --jobs 0 auto-detection.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.h"

namespace {

/// Owns argv storage for parse_campaign_flag.
struct Args {
  std::vector<std::string> storage;
  std::vector<char*> argv;
  explicit Args(std::initializer_list<const char*> args) {
    storage.emplace_back("cli");
    for (const char* arg : args) storage.emplace_back(arg);
    for (auto& arg : storage) argv.push_back(arg.data());
  }
  int argc() { return static_cast<int>(argv.size()); }
};

std::string error_of(auto parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliParse, UnsignedAcceptsDecimal) {
  EXPECT_EQ(cli::parse_unsigned("--pps", "0"), 0u);
  EXPECT_EQ(cli::parse_unsigned("--pps", "20000"), 20000u);
  EXPECT_EQ(cli::parse_unsigned("--pps", "18446744073709551615"), UINT64_MAX);
}

TEST(CliParse, UnsignedBaseZeroTakesStrtoullPrefixes) {
  EXPECT_EQ(cli::parse_unsigned("--seed", "0x5ca9", 0), 0x5ca9u);
  EXPECT_EQ(cli::parse_unsigned("--seed", "0XFF", 0), 0xffu);
  EXPECT_EQ(cli::parse_unsigned("--seed", "010", 0), 8u);
  EXPECT_EQ(cli::parse_unsigned("--seed", "0", 0), 0u);
  EXPECT_EQ(cli::parse_unsigned("--seed", "64", 0), 64u);
  EXPECT_EQ(cli::parse_unsigned("--seed", "0xffffffffffffffff", 0),
            UINT64_MAX);
}

TEST(CliParse, UnsignedRejectsAnythingButTheWholeNumber) {
  for (const char* bad : {"", "abc", "4x", "-5", "+5", " 5", "5 ", "0x",
                          "0x-1", "08", "18446744073709551616"}) {
    EXPECT_EQ(error_of([&] { cli::parse_unsigned("--seed", bad, 0); }),
              std::string("--seed: invalid value '") + bad + "'")
        << bad;
  }
  // Base 10 flags take no hex or octal prefix.
  EXPECT_NE(error_of([] { cli::parse_unsigned("--pps", "0x10"); }), "");
  EXPECT_EQ(cli::parse_unsigned("--pps", "010"), 10u);
}

TEST(CliParse, IntAcceptsDecimal) {
  EXPECT_EQ(cli::parse_int("--week", "18"), 18);
  EXPECT_EQ(cli::parse_int("--week", "-5"), -5);
  EXPECT_EQ(cli::parse_int("--week", "2147483647"), INT_MAX);
  EXPECT_EQ(cli::parse_int("--jobs", "0", 0), 0);
}

TEST(CliParse, IntRejectsJunkAndOutOfRange) {
  for (const char* bad : {"", "abc", "4x", "+5", " 5", "0x10", "2147483648",
                          "-2147483649"}) {
    EXPECT_EQ(error_of([&] { cli::parse_int("--week", bad); }),
              std::string("--week: invalid value '") + bad + "'")
        << bad;
  }
  EXPECT_EQ(error_of([] { cli::parse_int("--retries", "-5", 0); }),
            "--retries: invalid value '-5'");
}

TEST(CliFlags, ParsesEverySharedFlag) {
  Args args{"--week", "16", "--jobs", "4", "--schedule", "static",
            "--chunk-size", "0x40", "--seed", "7", "--qlog", "q",
            "--metrics", "m.json", "--sched-metrics", "s.json",
            "--impair", "lossy", "--adversary", "broken", "--retries", "2",
            "--report", "r", "--crypto-backend", "portable"};
  cli::CampaignFlags flags;
  for (int i = 1; i < args.argc(); ++i)
    ASSERT_TRUE(cli::parse_campaign_flag(args.argc(), args.argv.data(), i,
                                         flags))
        << args.argv[static_cast<size_t>(i)];
  EXPECT_EQ(flags.week, 16);
  EXPECT_EQ(flags.jobs, 4);
  EXPECT_EQ(flags.schedule, engine::Schedule::kStatic);
  EXPECT_EQ(flags.chunk_size, 64u);
  EXPECT_EQ(flags.seed, 7u);
  EXPECT_EQ(flags.qlog_dir, "q");
  EXPECT_EQ(flags.metrics_file, "m.json");
  EXPECT_EQ(flags.sched_metrics_file, "s.json");
  EXPECT_EQ(flags.impair, "lossy");
  EXPECT_EQ(flags.adversary, "broken");
  EXPECT_EQ(flags.retries, 2);
  EXPECT_EQ(flags.report_dir, "r");
  EXPECT_EQ(flags.crypto_backend, crypto::Backend::kPortable);
}

TEST(CliFlags, LeavesOtherArgumentsToTheCaller) {
  Args args{"--all", "--pps", "10"};
  cli::CampaignFlags flags;
  int i = 1;
  EXPECT_FALSE(cli::parse_campaign_flag(args.argc(), args.argv.data(), i,
                                        flags));
  i = 2;
  EXPECT_FALSE(cli::parse_campaign_flag(args.argc(), args.argv.data(), i,
                                        flags));
  EXPECT_EQ(i, 2);
}

TEST(CliFlags, FlagMissingItsValueFallsThroughToUsage) {
  Args args{"--jobs"};
  cli::CampaignFlags flags;
  int i = 1;
  EXPECT_FALSE(cli::parse_campaign_flag(args.argc(), args.argv.data(), i,
                                        flags));
  EXPECT_EQ(i, 1);
  EXPECT_EQ(flags.jobs, 1);
}

TEST(CliFlags, BadValuesNameTheFlag) {
  auto parse_one = [](const char* flag, const char* value) {
    Args args{flag, value};
    cli::CampaignFlags flags;
    int i = 1;
    return error_of([&] {
      cli::parse_campaign_flag(args.argc(), args.argv.data(), i, flags);
    });
  };
  EXPECT_EQ(parse_one("--jobs", "abc"), "--jobs: invalid value 'abc'");
  EXPECT_EQ(parse_one("--jobs", "-1"), "--jobs: invalid value '-1'");
  EXPECT_EQ(parse_one("--seed", "xyz"), "--seed: invalid value 'xyz'");
  EXPECT_EQ(parse_one("--chunk-size", "-5"),
            "--chunk-size: invalid value '-5'");
  EXPECT_EQ(parse_one("--retries", "abc"), "--retries: invalid value 'abc'");
  EXPECT_EQ(parse_one("--week", "banana"), "--week: invalid value 'banana'");
  EXPECT_EQ(parse_one("--schedule", "lazy").rfind("--schedule: ", 0), 0u);
  EXPECT_EQ(parse_one("--crypto-backend", "sse9000")
                .rfind("--crypto-backend: unknown crypto backend", 0),
            0u);
}

TEST(CliFlags, ResolveAutoDetectsJobsZero) {
  cli::CampaignFlags flags;
  flags.jobs = 0;
  cli::resolve_campaign_flags(flags);
  unsigned detected = std::thread::hardware_concurrency();
  EXPECT_EQ(flags.jobs, detected > 0 ? static_cast<int>(detected) : 1);
}

TEST(CliFlags, ResolveRejectsUnknownProfilesListingKnownNames) {
  cli::CampaignFlags impair;
  impair.impair = "nosuch";
  EXPECT_EQ(error_of([&] { cli::resolve_campaign_flags(impair); }),
            "--impair: unknown impairment profile 'nosuch' (known: clean "
            "lossy bursty hostile throttled)");
  cli::CampaignFlags adversary;
  adversary.adversary = "chaotic-evil";
  EXPECT_EQ(error_of([&] { cli::resolve_campaign_flags(adversary); }),
            "--adversary: unknown adversary profile 'chaotic-evil' (known: "
            "compliant sloppy broken malicious)");
}

TEST(CliFlags, SnapshotWeekErrorsNameTheFlag) {
  cli::CampaignFlags flags;
  flags.week = 99;
  std::string error = error_of([&] { cli::campaign_options(flags, {}); });
  EXPECT_EQ(error.rfind("--week: ", 0), 0u) << error;
}

}  // namespace
