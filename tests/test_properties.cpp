// Property-style parameterized sweeps across the wire stack: identities
// that must hold for *every* input in a family, not just hand-picked
// examples -- codec round trips, protection inverses, grammar
// idempotence and cross-version invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "crypto/aes.h"
#include "crypto/rng.h"
#include "dns/wire.h"
#include "engine/engine.h"
#include "http/alt_svc.h"
#include "http/h3.h"
#include "internet/internet.h"
#include "internet/tp_catalog.h"
#include "netsim/event_loop.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "quic/transport_params.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"
#include "tls/certificate.h"
#include "tls/record.h"
#include "wire/buffer.h"

namespace {

/// --- Transport parameters: catalog-wide wire round trip -------------

class TpCatalogRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TpCatalogRoundTrip, EncodeDecodeIdentity) {
  const auto& entry =
      internet::tp_catalog()[static_cast<size_t>(GetParam())];
  auto encoded = quic::encode_transport_parameters(entry.params);
  auto decoded = quic::decode_transport_parameters(encoded);
  EXPECT_EQ(decoded, entry.params);
  // Re-encoding the decoded value is byte-identical (canonical form).
  EXPECT_EQ(quic::encode_transport_parameters(decoded), encoded);
  // The config key survives the wire and stays unique in the catalog.
  EXPECT_EQ(internet::tp_config_id_for_key(decoded.config_key()), entry.id);
}

INSTANTIATE_TEST_SUITE_P(AllCatalogEntries, TpCatalogRoundTrip,
                         ::testing::Range(0, internet::kTpConfigCount));

/// --- Packet protection: protect/unprotect inverse over sizes --------

// gtest prints this case as its raw bytes and ctest names the test
// after them, so the struct has no padding: the four bytes after the
// version are an explicit zero, not whatever the copy left there.
struct ProtectCase {
  ProtectCase(quic::Version v, size_t size) : version(v), payload_size(size) {}
  quic::Version version;
  std::uint32_t reserved = 0;
  size_t payload_size;
};
static_assert(sizeof(ProtectCase) ==
              sizeof(quic::Version) + sizeof(std::uint32_t) + sizeof(size_t));

class ProtectionSweep : public ::testing::TestWithParam<ProtectCase> {};

TEST_P(ProtectionSweep, UnprotectInvertsProtect) {
  const quic::Version version = GetParam().version;
  const size_t payload_size = GetParam().payload_size;
  crypto::Rng rng(payload_size * 31 + version);
  auto dcid = rng.bytes(8);
  quic::Packet packet;
  packet.type = quic::PacketType::kInitial;
  packet.version = version;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = payload_size % 1000;
  packet.payload = rng.bytes(payload_size);
  // Avoid all-zero prefixes decoding as PADDING: content is random and
  // protection is content-agnostic anyway.
  auto protector = quic::PacketProtector::for_initial(version, dcid, false);
  auto wire_bytes = protector.protect(packet);
  size_t offset = 0;
  auto opened = protector.unprotect(wire_bytes, offset);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(offset, wire_bytes.size());
  if (payload_size >= 4) {
    EXPECT_EQ(opened->payload, packet.payload);
  } else {
    // Tiny payloads are padded to 4 bytes for the header-protection
    // sample; the original bytes are a prefix.
    ASSERT_GE(opened->payload.size(), payload_size);
    EXPECT_TRUE(std::equal(packet.payload.begin(), packet.payload.end(),
                           opened->payload.begin()));
  }
  EXPECT_EQ(opened->packet_number, packet.packet_number);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndVersions, ProtectionSweep,
    ::testing::Values(ProtectCase{quic::kVersion1, 0},
                      ProtectCase{quic::kVersion1, 1},
                      ProtectCase{quic::kVersion1, 4},
                      ProtectCase{quic::kVersion1, 17},
                      ProtectCase{quic::kVersion1, 1200},
                      ProtectCase{quic::kDraft29, 64},
                      ProtectCase{quic::kDraft29, 1451},
                      ProtectCase{quic::kDraft27, 333},
                      ProtectCase{quic::kDraft32, 999},
                      ProtectCase{quic::kDraft34, 10}));

/// --- Version negotiation greasing: every 0x?a?a?a?a forces VN -------

class GreasePattern : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GreasePattern, ClassifiedAsForcing) {
  uint32_t prefix = GetParam();
  quic::Version version = 0x0a0a0a0a | prefix;
  EXPECT_TRUE(quic::is_force_negotiation(version));
  EXPECT_FALSE(quic::is_ietf(version));
}

INSTANTIATE_TEST_SUITE_P(HighNibbles, GreasePattern,
                         ::testing::Values(0x00000000u, 0x10203040u,
                                           0xf0f0f0f0u, 0xa0a0a0a0u,
                                           0x50607080u));

/// --- DNS name codec over structured names ---------------------------

class DnsNameSweep : public ::testing::TestWithParam<int> {};

TEST_P(DnsNameSweep, RoundTripRandomisedNames) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()));
  // Compose 1..5 labels of 1..20 chars from the hostname alphabet.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-";
  std::string name;
  int labels = 1 + static_cast<int>(rng.below(5));
  for (int l = 0; l < labels; ++l) {
    if (l) name.push_back('.');
    int len = 1 + static_cast<int>(rng.below(20));
    for (int i = 0; i < len; ++i)
      name.push_back(kAlphabet[rng.below(sizeof kAlphabet - 1)]);
  }
  wire::Writer w;
  dns::encode_name(w, name);
  wire::Reader r(w.span());
  EXPECT_EQ(dns::decode_name(r, w.span()), name);
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsNameSweep, ::testing::Range(0, 25));

/// --- Alt-Svc: format-parse identity over generated entry lists ------

class AltSvcSweep : public ::testing::TestWithParam<int> {};

TEST_P(AltSvcSweep, FormatParseIdentity) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  static const char* kTokens[] = {"h3",      "h3-29",  "h3-27",
                                  "h3-Q050", "quic",   "h3-34"};
  static const char* kHosts[] = {"", "alt.example.com", "cdn.example"};
  std::vector<http::AltSvcEntry> entries;
  size_t count = 1 + rng.below(4);
  for (size_t i = 0; i < count; ++i) {
    http::AltSvcEntry entry;
    entry.alpn = kTokens[rng.below(6)];
    entry.host = kHosts[rng.below(3)];
    entry.port = static_cast<uint16_t>(1 + rng.below(65535));
    if (rng.chance(0.5)) entry.max_age = rng.below(1u << 30);
    entries.push_back(std::move(entry));
  }
  auto parsed = http::parse_alt_svc(http::format_alt_svc(entries));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, entries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AltSvcSweep, ::testing::Range(0, 25));

/// --- H3: request/response round trip over generated headers ---------

class H3Sweep : public ::testing::TestWithParam<int> {};

TEST_P(H3Sweep, ResponseRoundTrip) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 1009);
  http::h3::Response response;
  response.status = 100 + static_cast<int>(rng.below(500));
  size_t headers = rng.below(6);
  for (size_t i = 0; i < headers; ++i)
    response.headers.add("x-field-" + std::to_string(i),
                         std::string(rng.below(40), 'v'));
  auto body = rng.bytes(rng.below(500));
  response.body.assign(body.begin(), body.end());
  auto decoded =
      http::h3::decode_response(http::h3::encode_response(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, response.status);
  EXPECT_EQ(decoded->headers, response.headers);
  EXPECT_EQ(decoded->body, response.body);
}

INSTANTIATE_TEST_SUITE_P(Seeds, H3Sweep, ::testing::Range(0, 20));

/// --- Certificates: wildcard matching truth table --------------------

struct WildcardCase {
  const char* pattern;
  const char* host;
  bool matches;
};

// Without this, gtest prints the case as raw bytes: the two string
// addresses (which move with ASLR) and the struct's padding, so the
// ctest names that gtest_discover_tests derives from it change on
// every build.
void PrintTo(const WildcardCase& c, std::ostream* os) {
  *os << "pattern=" << c.pattern << " host=" << c.host
      << " match=" << (c.matches ? "true" : "false");
}

class WildcardSweep : public ::testing::TestWithParam<WildcardCase> {};

TEST_P(WildcardSweep, MatchesExpectation) {
  auto [pattern, host, matches] = GetParam();
  EXPECT_EQ(tls::wildcard_match(pattern, host), matches)
      << pattern << " vs " << host;
}

INSTANTIATE_TEST_SUITE_P(
    TruthTable, WildcardSweep,
    ::testing::Values(WildcardCase{"example.com", "example.com", true},
                      WildcardCase{"example.com", "www.example.com", false},
                      WildcardCase{"*.example.com", "www.example.com", true},
                      WildcardCase{"*.example.com", "example.com", false},
                      WildcardCase{"*.example.com", "a.b.example.com", false},
                      WildcardCase{"*.example.com", ".example.com", false},
                      WildcardCase{"*.example.com", "xexample.com", false},
                      WildcardCase{"*.co", "x.co", true},
                      WildcardCase{"*", "example.com", false},
                      WildcardCase{"", "", true}));

/// --- Retry: integrity across versions -------------------------------

class RetrySweep : public ::testing::TestWithParam<quic::Version> {};

TEST_P(RetrySweep, RoundTripAndCrossVersionRejection) {
  quic::Version version = GetParam();
  crypto::Rng rng(version);
  quic::RetryPacket retry;
  retry.version = version;
  retry.dcid = rng.bytes(8);
  retry.scid = rng.bytes(8);
  retry.token = rng.bytes(24);
  auto odcid = rng.bytes(8);
  auto bytes = quic::encode_retry(retry, odcid);
  ASSERT_TRUE(quic::decode_retry(bytes, odcid).has_value());
  // Re-tagging under a different version's keys must not validate
  // (except between versions sharing integrity keys, e.g. 33+/v1).
  quic::RetryPacket other = retry;
  other.version = version == quic::kVersion1 ? quic::kDraft29
                                             : quic::kVersion1;
  auto other_bytes = quic::encode_retry(other, odcid);
  // Patch the version field back so only the tag mismatches.
  for (int i = 0; i < 4; ++i)
    other_bytes[1 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(version >> (8 * (3 - i)));
  EXPECT_FALSE(quic::decode_retry(other_bytes, odcid).has_value());
}

INSTANTIATE_TEST_SUITE_P(Versions, RetrySweep,
                         ::testing::Values(quic::kVersion1, quic::kDraft29,
                                           quic::kDraft32, quic::kDraft27,
                                           quic::kDraft28, quic::kDraft34));

/// --- Campaign sharding: exact, stable partitions --------------------
///
/// The engine's determinism contract (DESIGN.md "Sharded campaign
/// engine") rests on shard_ranges being an exact order-stable
/// partition for *every* (n, K), so sweep the family.

// Printed as raw bytes into the ctest name, like ProtectCase: the tail
// that would be padding is an explicit zero.
struct ShardCase {
  size_t n;
  int jobs;
  std::int32_t reserved = 0;
};
static_assert(sizeof(ShardCase) ==
              sizeof(size_t) + sizeof(int) + sizeof(std::int32_t));

class ShardPartitionSweep : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardPartitionSweep, EveryTargetInExactlyOneShard) {
  const size_t n = GetParam().n;
  const int jobs = GetParam().jobs;
  auto ranges = engine::shard_ranges(n, jobs);
  ASSERT_EQ(ranges.size(), static_cast<size_t>(jobs));

  // Contiguous and exhaustive: concatenating the ranges in shard order
  // enumerates 0..n-1 exactly once, in input order.
  size_t next = 0;
  for (const auto& range : ranges) {
    EXPECT_EQ(range.begin, next);
    EXPECT_LE(range.begin, range.end);
    next = range.end;
  }
  EXPECT_EQ(next, n);

  // Balanced: sizes differ by at most one, the first n % jobs shards
  // take the extra target.
  size_t base = n / static_cast<size_t>(jobs);
  size_t extra = n % static_cast<size_t>(jobs);
  for (size_t s = 0; s < ranges.size(); ++s)
    EXPECT_EQ(ranges[s].size(), base + (s < extra ? 1 : 0));

  // shard_of is the partition's inverse map.
  for (size_t i = 0; i < n; ++i) {
    int s = engine::shard_of(i, n, jobs);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, jobs);
    EXPECT_GE(i, ranges[static_cast<size_t>(s)].begin);
    EXPECT_LT(i, ranges[static_cast<size_t>(s)].end);
  }
}

TEST_P(ShardPartitionSweep, AssignmentIsStable) {
  const size_t n = GetParam().n;
  const int jobs = GetParam().jobs;
  // Pure function of (n, jobs): recomputation never reshuffles targets.
  EXPECT_EQ(engine::shard_ranges(n, jobs), engine::shard_ranges(n, jobs));
  for (size_t i = 0; i < n; ++i)
    EXPECT_EQ(engine::shard_of(i, n, jobs), engine::shard_of(i, n, jobs));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndShardCounts, ShardPartitionSweep,
    ::testing::Values(ShardCase{0, 1}, ShardCase{0, 4}, ShardCase{1, 1},
                      ShardCase{1, 8}, ShardCase{5, 7}, ShardCase{7, 3},
                      ShardCase{16, 4}, ShardCase{97, 8}, ShardCase{100, 13},
                      ShardCase{1000, 8}, ShardCase{2605, 16}));

TEST(ShardSeedSweep, Shard0InheritsCampaignSeedOthersDiverge) {
  for (uint64_t seed : {0ull, 1ull, 0x5ca9ull, 0x9e3779b97f4a7c15ull}) {
    EXPECT_EQ(engine::shard_seed(seed, 0), seed);
    // Distinct across shard indices (no shared connection entropy).
    std::vector<uint64_t> seeds;
    for (uint32_t s = 0; s < 32; ++s)
      seeds.push_back(engine::shard_seed(seed, s));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  }
}

TEST(ShardPartitionBoundaries, ShardOfIsExactAtFatThinBoundary) {
  // shard_of is O(1) arithmetic over the balanced partition; the
  // delicate spots are the boundary between the first n % jobs "fat"
  // shards (base+1 targets) and the "thin" rest, plus each range's
  // first/last index. Sweep partitions with a nonzero remainder and
  // pin every boundary index to the range that owns it.
  struct Case {
    size_t n;
    int jobs;
  };
  for (auto [n, jobs] : {Case{5, 7}, Case{7, 3}, Case{97, 8}, Case{100, 13},
                         Case{1000, 7}, Case{2605, 16}, Case{8, 8},
                         Case{9, 8}, Case{15, 4}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " jobs=" + std::to_string(jobs));
    auto ranges = engine::shard_ranges(n, jobs);
    size_t base = n / static_cast<size_t>(jobs);
    size_t extra = n % static_cast<size_t>(jobs);
    size_t fat_end = extra * (base + 1);  // first index owned thin-side
    for (size_t s = 0; s < ranges.size(); ++s) {
      if (ranges[s].size() == 0) continue;
      EXPECT_EQ(engine::shard_of(ranges[s].begin, n, jobs),
                static_cast<int>(s));
      EXPECT_EQ(engine::shard_of(ranges[s].end - 1, n, jobs),
                static_cast<int>(s));
    }
    if (extra > 0 && fat_end < n) {
      // Last fat index and first thin index land on adjacent shards.
      EXPECT_EQ(engine::shard_of(fat_end - 1, n, jobs),
                static_cast<int>(extra) - 1);
      EXPECT_EQ(engine::shard_of(fat_end, n, jobs), static_cast<int>(extra));
    }
  }
}

/// --- Dynamic chunk scheduler: partitions, seeds, steal stress -------
///
/// The dynamic scheduler's determinism contract (DESIGN.md "Dynamic
/// chunk scheduler") rests on chunk_ranges being an exact order-stable
/// partition and chunk_seed being a pure function of (seed, index).

TEST(ChunkPartitionSweep, ConcatenationIsExactlyZeroToN) {
  struct Case {
    size_t n;
    size_t chunk;
  };
  for (auto [n, chunk] :
       {Case{0, 1}, Case{0, 64}, Case{1, 1}, Case{1, 7}, Case{5, 7},
        Case{7, 3}, Case{48, 1}, Case{48, 7}, Case{48, 48}, Case{48, 64},
        Case{97, 8}, Case{100, 13}, Case{1000, 64}, Case{2605, 16}}) {
    SCOPED_TRACE("n=" + std::to_string(n) +
                 " chunk=" + std::to_string(chunk));
    auto ranges = engine::chunk_ranges(n, chunk);

    // n == 0 clamps to one empty chunk (the campaign still runs one
    // world); chunk_size > n clamps to a single [0, n) chunk.
    if (n == 0) {
      ASSERT_EQ(ranges.size(), 1u);
      EXPECT_EQ(ranges[0], (engine::ShardRange{0, 0}));
    } else {
      ASSERT_EQ(ranges.size(), (n + chunk - 1) / chunk);
      if (chunk >= n) {
        ASSERT_EQ(ranges.size(), 1u);
        EXPECT_EQ(ranges[0], (engine::ShardRange{0, n}));
      }
    }

    // Contiguous, exhaustive, no overlap: concatenating in chunk order
    // enumerates 0..n-1 exactly once.
    size_t next = 0;
    for (const auto& range : ranges) {
      EXPECT_EQ(range.begin, next);
      EXPECT_LE(range.begin, range.end);
      next = range.end;
    }
    EXPECT_EQ(next, n);

    // Every chunk except the tail spans exactly chunk_size targets.
    for (size_t c = 0; c + 1 < ranges.size(); ++c)
      EXPECT_EQ(ranges[c].size(), chunk);

    // Pure function of (n, chunk_size).
    EXPECT_EQ(engine::chunk_ranges(n, chunk), ranges);
  }
  // chunk_size 0 clamps to 1.
  EXPECT_EQ(engine::chunk_ranges(5, 0), engine::chunk_ranges(5, 1));
}

TEST(ChunkSeedSweep, Chunk0InheritsCampaignSeedOthersDistinct) {
  for (uint64_t seed : {0ull, 1ull, 0x5ca9ull, 0x9e3779b97f4a7c15ull}) {
    // Chunk 0 inherits the campaign seed: a one-chunk dynamic campaign
    // is bit-compatible with the serial path.
    EXPECT_EQ(engine::chunk_seed(seed, 0), seed);
    // Stable and distinct across chunk indices.
    std::vector<uint64_t> seeds;
    for (size_t c = 0; c < 256; ++c) {
      seeds.push_back(engine::chunk_seed(seed, c));
      EXPECT_EQ(engine::chunk_seed(seed, c), seeds.back());
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  }
}

TEST(DynamicSchedulerStress, StealScheduleNeverChangesMergedOutput) {
  // The TSan-tree stress test: 64 single-target chunks on 8 workers,
  // each chunk burning a pseudorandom (chunk-seed-derived) amount of
  // virtual time, so workers drain the cursor in a different
  // interleaving on every repeat. Zero drift allowed: the merged
  // metrics JSON must be byte-identical across 8 repeats, and the
  // scheduler must hand out every chunk exactly once.
  constexpr size_t kTargets = 64;
  constexpr int kRepeats = 8;
  auto snapshot = std::make_shared<const internet::Snapshot>(
      internet::PopulationParams{.dns_corpus_scale = 0.002}, 18);

  std::string baseline;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    SCOPED_TRACE("repeat=" + std::to_string(repeat));
    engine::CampaignOptions options;
    options.jobs = 8;
    options.seed = 0x57ea1;
    options.schedule = engine::Schedule::kDynamic;
    options.chunk_size = 1;  // 64 chunks
    options.snapshot = snapshot;
    engine::Campaign campaign(options);
    ASSERT_EQ(campaign.slot_count(kTargets), kTargets);

    campaign.run(kTargets, [](engine::ShardEnv& env) {
      // Randomized per-chunk virtual-time cost: a chain of timer
      // events whose count and spacing derive from the chunk seed.
      crypto::Rng rng(env.seed);
      uint64_t events = 1 + rng.below(40);
      uint64_t fired = 0;
      for (uint64_t e = 0; e < events; ++e)
        env.loop->schedule_in(rng.below(5000), [&fired] { ++fired; });
      env.loop->run();
      env.metrics->counter("stress.chunks").add(1);
      env.metrics->counter("stress.events").add(fired);
      env.metrics->counter("stress.virtual_end_us").add(env.loop->now_us());
    });

    std::ostringstream json;
    campaign.metrics().write_json(json);
    const auto* chunks = campaign.metrics().find_counter("stress.chunks");
    ASSERT_NE(chunks, nullptr);
    EXPECT_EQ(chunks->value(), kTargets);  // every chunk ran exactly once
    if (repeat == 0) {
      baseline = json.str();
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(json.str(), baseline);
    }
  }
}

/// --- Adversary fabric: merged output is schedule/partition free ------
///
/// The misbehaving-endpoint overlay (DESIGN.md "Adversarial endpoints")
/// keys every per-host plan on (population seed, host address) alone,
/// so the merged campaign output under *every* adversary profile must
/// be a pure function of the option set: byte-identical across
/// --jobs 1/2/4/8 and both steal schedules.

struct AdversarySweepRun {
  std::vector<std::string> rows;
  std::string metrics_json;
};

AdversarySweepRun run_adversary_campaign(
    const std::shared_ptr<const internet::Snapshot>& snapshot,
    const std::vector<scanner::QscanTarget>& targets,
    const std::string& adversary, int jobs, engine::Schedule schedule) {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = 0x5ca9;
  options.schedule = schedule;
  options.chunk_size = 7;
  options.snapshot = snapshot;
  options.adversary = adversary;
  engine::Campaign campaign(options);

  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::QscanResult>> shard_rows(slots);
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    auto& rows = shard_rows[static_cast<size_t>(env.shard_index)];
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      rows.push_back(qscanner.scan_one(targets[i]));
    }
  });

  AdversarySweepRun run;
  for (const auto& result : engine::concat_shards(std::move(shard_rows))) {
    std::ostringstream row;
    row << result.target.address.to_string() << ','
        << scanner::to_string(result.outcome) << ','
        << quic::to_string(result.report.protocol_error);
    run.rows.push_back(row.str());
  }
  std::ostringstream json;
  campaign.metrics().write_json(json);
  run.metrics_json = json.str();
  return run;
}

TEST(AdversaryPropertySweep, MergedOutputInvariantAcrossJobsAndSchedules) {
  auto snapshot = std::make_shared<const internet::Snapshot>(
      internet::PopulationParams{.dns_corpus_scale = 0.002}, 18);
  std::vector<scanner::QscanTarget> targets;
  {
    netsim::EventLoop loop;
    internet::Internet net(snapshot, loop);
    for (const auto& host : net.population().hosts()) {
      if (!host.address.is_v4()) continue;
      targets.push_back({host.address, std::nullopt,
                         host.advertised_versions});
      if (targets.size() >= 40) break;
    }
  }
  ASSERT_FALSE(targets.empty());

  for (std::string_view profile : internet::adversary_profile_names()) {
    SCOPED_TRACE(std::string(profile));
    auto baseline = run_adversary_campaign(snapshot, targets,
                                           std::string(profile), 1,
                                           engine::Schedule::kStatic);
    EXPECT_FALSE(baseline.rows.empty());
    for (auto schedule :
         {engine::Schedule::kStatic, engine::Schedule::kDynamic}) {
      for (int jobs : {2, 4, 8}) {
        SCOPED_TRACE(std::string(engine::schedule_name(schedule)) +
                     " jobs=" + std::to_string(jobs));
        auto run = run_adversary_campaign(snapshot, targets,
                                          std::string(profile), jobs,
                                          schedule);
        EXPECT_EQ(run.rows, baseline.rows);
        EXPECT_EQ(run.metrics_json, baseline.metrics_json);
      }
    }
  }
}

/// --- Metrics merge: associative, commutative, order-independent -----
///
/// The campaign folds shard registries in shard-index order, but the
/// contract says the order is immaterial; hold the algebra to that.

telemetry::Histogram sample_histogram(uint64_t seed, int samples) {
  telemetry::Histogram h({10, 100, 1000});
  crypto::Rng rng(seed);
  for (int i = 0; i < samples; ++i)
    h.observe(rng.below(5000));  // spills into the overflow bucket
  return h;
}

void expect_same_histogram(const telemetry::Histogram& a,
                           const telemetry::Histogram& b) {
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(HistogramMergeAlgebra, AssociativeAndCommutative) {
  auto a = sample_histogram(1, 40);
  auto b = sample_histogram(2, 25);
  auto c = sample_histogram(3, 0);  // one empty operand in the mix

  auto ab_c = a;        // (a + b) + c
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  auto bc = b;          // a + (b + c)
  bc.merge_from(c);
  auto a_bc = a;
  a_bc.merge_from(bc);
  auto cba = c;         // (c + b) + a  -- commuted fold
  cba.merge_from(b);
  cba.merge_from(a);

  expect_same_histogram(ab_c, a_bc);
  expect_same_histogram(ab_c, cba);
}

TEST(RegistryMergeAlgebra, FoldOrderDoesNotChangeTheJson) {
  // Three shard-like registries with overlapping and disjoint names,
  // as produced by shards that saw different outcome mixes.
  auto make = [](uint64_t seed, bool with_extra) {
    auto registry = std::make_unique<telemetry::MetricsRegistry>();
    crypto::Rng rng(seed);
    registry->counter("qscan.attempts").add(rng.range(1, 50));
    registry->gauge("loop.depth").set(static_cast<int64_t>(seed));
    auto& h = registry->histogram("rtt", {10, 100, 1000});
    for (int i = 0; i < 20; ++i) h.observe(rng.below(5000));
    if (with_extra) registry->counter("qscan.outcome.timeout").add(seed);
    return registry;
  };
  auto r1 = make(1, true);
  auto r2 = make(2, false);
  auto r3 = make(3, true);

  auto fold = [](std::vector<const telemetry::MetricsRegistry*> order) {
    telemetry::MetricsRegistry merged;
    for (const auto* r : order) merged.merge_from(*r);
    std::ostringstream json;
    merged.write_json(json);
    return json.str();
  };

  auto forward = fold({r1.get(), r2.get(), r3.get()});
  EXPECT_EQ(forward, fold({r3.get(), r1.get(), r2.get()}));
  EXPECT_EQ(forward, fold({r2.get(), r3.get(), r1.get()}));
  EXPECT_NE(forward, fold({r1.get(), r2.get()}));  // merge is not lossy
}

/// --- Hot-path append APIs: byte-identical to return-by-value --------
//
// PR 3 converts the packet path to append-into-caller-buffer APIs with
// reusable scratch; these sweeps pin the contract that every new entry
// point produces exactly the bytes of the old return-by-value one, over
// randomized keys, sizes and buffer-reuse patterns.

class AppendApiSweep : public ::testing::TestWithParam<int> {};

TEST_P(AppendApiSweep, GcmSealOpenAppendMatchesReturnByValue) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  auto key = rng.bytes(16);
  crypto::Aes128Gcm gcm(key);
  std::vector<uint8_t> sealed_acc = rng.bytes(rng.below(9));
  for (int round = 0; round < 8; ++round) {
    auto nonce = rng.bytes(12);
    auto aad = rng.bytes(rng.below(40));
    auto plaintext = rng.bytes(rng.below(300));

    auto sealed = gcm.seal(nonce, aad, plaintext);
    const auto prefix = sealed_acc;
    gcm.seal_append(nonce, aad, plaintext, sealed_acc);
    ASSERT_EQ(sealed_acc.size(), prefix.size() + sealed.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), sealed_acc.begin()));
    EXPECT_TRUE(
        std::equal(sealed.begin(), sealed.end(),
                   sealed_acc.begin() + static_cast<long>(prefix.size())));

    auto opened = gcm.open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value());
    std::vector<uint8_t> opened_acc = rng.bytes(rng.below(5));
    const auto opened_prefix = opened_acc;
    ASSERT_TRUE(gcm.open_append(nonce, aad, sealed, opened_acc));
    ASSERT_EQ(opened_acc.size(), opened_prefix.size() + opened->size());
    EXPECT_TRUE(std::equal(opened->begin(), opened->end(),
                           opened_acc.begin() +
                               static_cast<long>(opened_prefix.size())));

    // A corrupted tag must fail and leave the output buffer untouched.
    auto corrupt = sealed;
    corrupt.back() ^= 0x01;
    auto before = opened_acc;
    EXPECT_FALSE(gcm.open_append(nonce, aad, corrupt, opened_acc));
    EXPECT_EQ(opened_acc, before);
  }
}

TEST_P(AppendApiSweep, ProtectIntoMatchesProtectAndCoalesces) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  auto dcid = rng.bytes(8);
  auto protector =
      quic::PacketProtector::for_initial(quic::kVersion1, dcid, false);

  std::vector<uint8_t> coalesced;
  std::vector<uint8_t> expected;
  quic::Packet reused;  // rx scratch reused across every round
  for (int round = 0; round < 6; ++round) {
    quic::Packet packet;
    packet.type = round % 2 ? quic::PacketType::kHandshake
                            : quic::PacketType::kInitial;
    packet.version = quic::kVersion1;
    packet.dcid = dcid;
    packet.scid = rng.bytes(8);
    packet.packet_number = static_cast<uint64_t>(round);
    packet.payload = rng.bytes(4 + rng.below(600));

    auto alone = protector.protect(packet);
    protector.protect_into(packet, packet.payload, coalesced);
    expected.insert(expected.end(), alone.begin(), alone.end());
    ASSERT_EQ(coalesced, expected) << "round " << round;
  }

  // Walking the coalesced datagram with the reusing unprotect_into
  // recovers each packet identically to the allocating unprotect.
  size_t offset = 0, check_offset = 0;
  for (int round = 0; round < 6; ++round) {
    auto fresh = protector.unprotect(coalesced, check_offset);
    ASSERT_TRUE(fresh.has_value());
    ASSERT_TRUE(protector.unprotect_into(coalesced, offset, reused));
    EXPECT_EQ(offset, check_offset);
    EXPECT_EQ(reused.packet_number, fresh->packet_number);
    EXPECT_EQ(reused.dcid, fresh->dcid);
    EXPECT_EQ(reused.scid, fresh->scid);
    EXPECT_EQ(reused.token, fresh->token);
    EXPECT_EQ(reused.payload, fresh->payload);
  }
  EXPECT_EQ(offset, coalesced.size());
}

TEST_P(AppendApiSweep, FrameEncodeIntoReusedWriterMatchesEncodeFrames) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  wire::Writer reused;
  for (int round = 0; round < 10; ++round) {
    std::vector<quic::Frame> frames;
    size_t count = 1 + rng.below(6);
    for (size_t i = 0; i < count; ++i) {
      switch (rng.below(6)) {
        case 0: frames.push_back(quic::PaddingFrame{1 + rng.below(50)}); break;
        case 1: frames.push_back(quic::PingFrame{}); break;
        case 2:
          frames.push_back(quic::AckFrame{rng.below(1000), rng.below(100),
                                          rng.below(10), {}});
          break;
        case 3:
          frames.push_back(
              quic::CryptoFrame{rng.below(1 << 14), rng.bytes(rng.below(80))});
          break;
        case 4:
          frames.push_back(quic::StreamFrame{rng.below(64), rng.below(1 << 14),
                                             rng.below(2) == 0,
                                             rng.bytes(rng.below(80))});
          break;
        default: frames.push_back(quic::HandshakeDoneFrame{}); break;
      }
    }
    auto expected = quic::encode_frames(frames);
    reused.clear();  // capacity survives; contents must not
    quic::encode_frames_into(reused, frames);
    ASSERT_EQ(std::vector<uint8_t>(reused.span().begin(), reused.span().end()),
              expected)
        << "round " << round;
    auto decoded = quic::decode_frames(reused.span());
    auto reference = quic::decode_frames(expected);
    EXPECT_EQ(decoded, reference);
  }
}

TEST_P(AppendApiSweep, WireAppendPrimitivesMatchWriter) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  wire::Writer w;
  std::vector<uint8_t> appended;
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.next() >> rng.below(64);
    switch (rng.below(6)) {
      case 0: w.u8(static_cast<uint8_t>(v));
              wire::append_u8(appended, static_cast<uint8_t>(v)); break;
      case 1: w.u16(static_cast<uint16_t>(v));
              wire::append_u16(appended, static_cast<uint16_t>(v)); break;
      case 2: w.u32(static_cast<uint32_t>(v));
              wire::append_u32(appended, static_cast<uint32_t>(v)); break;
      case 3: w.u64(v); wire::append_u64(appended, v); break;
      case 4: {
        uint64_t varint = v & wire::kVarintMax;
        w.varint(varint);
        wire::append_varint(appended, varint);
        break;
      }
      default: {
        auto blob = rng.bytes(rng.below(20));
        w.bytes(blob);
        wire::append_bytes(appended, blob);
        break;
      }
    }
  }
  EXPECT_EQ(std::vector<uint8_t>(w.span().begin(), w.span().end()), appended);
}

TEST_P(AppendApiSweep, RecordSealIntoMatchesSeal) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  tls::TrafficKeys keys;
  keys.key = rng.bytes(16);
  keys.iv = rng.bytes(12);
  // Two crypters with the same keys advance their sequence numbers in
  // lockstep, one per API under test.
  tls::RecordCrypter by_value(keys);
  tls::RecordCrypter by_append(keys);
  std::vector<uint8_t> flight;
  std::vector<uint8_t> expected;
  for (int round = 0; round < 8; ++round) {
    auto payload = rng.bytes(rng.below(400));
    auto record = by_value.seal(tls::ContentType::kHandshake, payload);
    by_append.seal_into(tls::ContentType::kHandshake, payload, flight);
    expected.insert(expected.end(), record.begin(), record.end());
    ASSERT_EQ(flight, expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppendApiSweep, ::testing::Range(0, 12));

}  // namespace
