// Deployment simulator tests (core/deployment.hpp): the reader-to-reader
// channel schedule (no co-channel concurrency), overlap ownership
// resolution, pure churn schedules, exact delivered-or-listed accounting,
// and shard/thread invariance of the report.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/deployment.hpp"
#include "obs/stream.hpp"
#include "parallel/thread_pool.hpp"

namespace rfid::core {
namespace {

tags::TagPopulation uniform(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return tags::TagPopulation::uniform_random(n, rng);
}

/// Byte-stable digest of a deployment report for determinism comparisons.
std::string deployment_digest(const DeploymentReport& report) {
  std::ostringstream os;
  obs::write_json(os, report.totals);
  for (std::size_t r = 0; r < report.per_reader_metrics.size(); ++r) {
    os << '|';
    obs::write_json(os, report.per_reader_metrics[r]);
    os << ':' << report.per_reader_delivered[r] << ':'
       << report.per_reader_incarnations[r];
  }
  os << '|' << report.delivered << '|' << report.ticks << '|'
     << report.handoffs << '|' << report.churn_moves << '|'
     << report.churn_departures << '|' << report.transitions.size();
  for (const TagId& id : report.missing_ids) os << '|' << id.to_hex();
  for (const TagId& id : report.undelivered_ids) os << '|' << id.to_hex();
  for (const ChannelReport& c : report.per_channel)
    os << '|' << c.readers << ':' << c.rounds << ':' << c.busy_us;
  return os.str();
}

/// FNV-1a of a digest string, for pinning one in a test.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Channel schedule -------------------------------------------------------

TEST(ChannelSchedule, PopulationsPartitionTheFleet) {
  for (const std::size_t readers : {1u, 2u, 7u, 13u, 64u}) {
    for (std::size_t channels = 1; channels <= readers; ++channels) {
      std::size_t sum = 0;
      for (std::size_t c = 0; c < channels; ++c)
        sum += channel_population(c, readers, channels);
      EXPECT_EQ(sum, readers) << readers << "x" << channels;
      for (std::size_t r = 0; r < readers; ++r)
        EXPECT_LT(channel_of(r, channels), channels);
    }
  }
}

TEST(ChannelSchedule, NoCoChannelConcurrencyAndFullRotation) {
  // The core invariant: per tick exactly one reader transmits per channel,
  // and over one rotation every channel member is scheduled exactly once.
  constexpr std::size_t kReaders = 13;
  constexpr std::size_t kChannels = 4;
  for (std::size_t c = 0; c < kChannels; ++c) {
    const std::size_t members = channel_population(c, kReaders, kChannels);
    std::set<std::size_t> seen;
    for (std::uint64_t tick = 1; tick <= members; ++tick) {
      const std::size_t r = scheduled_reader(c, kReaders, kChannels, tick);
      ASSERT_LT(r, kReaders);
      EXPECT_EQ(channel_of(r, kChannels), c);  // never leaves its channel
      seen.insert(r);
    }
    EXPECT_EQ(seen.size(), members);  // every member exactly once
    // The rotation wraps: tick members+1 repeats tick 1.
    EXPECT_EQ(scheduled_reader(c, kReaders, kChannels, members + 1),
              scheduled_reader(c, kReaders, kChannels, 1));
  }
}

TEST(ChannelSchedule, DegeneratesToTimeDivisionAndSpatialParallel) {
  constexpr std::size_t kReaders = 6;
  // C = 1: one shared channel, readers take strict turns (pure TDMA).
  std::set<std::size_t> tdma;
  for (std::uint64_t tick = 1; tick <= kReaders; ++tick)
    tdma.insert(scheduled_reader(0, kReaders, 1, tick));
  EXPECT_EQ(tdma.size(), kReaders);
  // C = R: every reader owns a channel and transmits every tick.
  for (std::uint64_t tick = 1; tick <= 3; ++tick)
    for (std::size_t c = 0; c < kReaders; ++c)
      EXPECT_EQ(scheduled_reader(c, kReaders, kReaders, tick), c);
}

// --- Overlap ownership ------------------------------------------------------

TEST(Ownership, ResolvesWithinReachDeterministically) {
  const auto pop = uniform(2000, 41);
  DeploymentConfig config;
  config.readers = 8;
  config.zone_overlap = 0.5;
  std::size_t rehomed = 0;
  for (const tags::Tag& tag : pop) {
    const std::size_t zone = 3;
    const std::size_t owner = owner_in_zone(tag.id(), zone, config);
    EXPECT_EQ(owner, owner_in_zone(tag.id(), zone, config));  // pure
    if (owner != zone) {
      // Rehoming is only legal to the overlapping neighbor, and only for
      // tags the overlap draw actually reaches.
      EXPECT_EQ(owner, (zone + 1) % config.readers);
      EXPECT_TRUE(tag_reaches_neighbor(tag.id(), config.zone_overlap,
                                       config.partition_seed));
      ++rehomed;
    }
  }
  // ~50% reach the neighbor, ~half of those hash to it: ~25% rehome.
  EXPECT_GT(rehomed, 300u);
  EXPECT_LT(rehomed, 700u);
}

TEST(Ownership, ZeroOverlapIsTheLegacyPartition) {
  const auto pop = uniform(300, 42);
  DeploymentConfig config;
  config.readers = 5;
  config.zone_overlap = 0.0;
  for (const tags::Tag& tag : pop) {
    EXPECT_FALSE(tag_reaches_neighbor(tag.id(), 0.0, config.partition_seed));
    for (std::size_t zone = 0; zone < config.readers; ++zone)
      EXPECT_EQ(owner_in_zone(tag.id(), zone, config), zone);
  }
}

// --- Churn schedules --------------------------------------------------------

TEST(Churn, PositionIsPureAndDepartureIsAbsorbing) {
  const auto pop = uniform(200, 43);
  DeploymentConfig config;
  config.readers = 6;
  config.churn_move_per_tick = 0.05;
  config.churn_depart_per_tick = 0.02;
  std::size_t departures = 0, moves = 0;
  for (const tags::Tag& tag : pop) {
    ChurnPosition prev = churn_position(tag.id(), 2, 0, config);
    EXPECT_EQ(prev.zone, 2u);  // tick 0: still at home
    EXPECT_FALSE(prev.departed);
    for (std::uint64_t tick = 1; tick <= 200; ++tick) {
      const ChurnPosition pos = churn_position(tag.id(), 2, tick, config);
      const ChurnPosition again = churn_position(tag.id(), 2, tick, config);
      EXPECT_EQ(pos.zone, again.zone);  // pure in (seed, id, tick)
      EXPECT_EQ(pos.moves, again.moves);
      EXPECT_GE(pos.moves, prev.moves);  // event count never rewinds
      EXPECT_LT(pos.zone, config.readers);
      if (prev.departed) {  // departure is absorbing
        EXPECT_TRUE(pos.departed);
        EXPECT_EQ(pos.departed_at, prev.departed_at);
        EXPECT_EQ(pos.moves, prev.moves);
      }
      prev = pos;
    }
    departures += prev.departed;
    moves += prev.moves;
  }
  // At these hazards over 200 ticks, nearly everything departs and most
  // tags move at least once first — the schedules demonstrably fire.
  EXPECT_GT(departures, 150u);
  EXPECT_GT(moves, 200u);
}

TEST(Churn, ZeroHazardsMeanNobodyEverMoves) {
  const auto pop = uniform(50, 44);
  DeploymentConfig config;
  config.readers = 4;
  for (const tags::Tag& tag : pop) {
    const ChurnPosition pos = churn_position(tag.id(), 1, 1u << 16, config);
    EXPECT_EQ(pos.zone, 1u);
    EXPECT_FALSE(pos.departed);
    EXPECT_EQ(pos.moves, 0u);
  }
}

TEST(Churn, NextAtIsTheFirstTickThePositionChanges) {
  const auto pop = uniform(60, 52);
  DeploymentConfig config;
  config.readers = 5;
  config.churn_move_per_tick = 0.04;
  config.churn_depart_per_tick = 0.01;
  Xoshiro256ss tick_rng(53);
  const auto same = [](const ChurnPosition& a, const ChurnPosition& b) {
    return a.zone == b.zone && a.departed == b.departed && a.moves == b.moves;
  };
  std::size_t finite = 0;
  for (const tags::Tag& tag : pop) {
    for (int sample = 0; sample < 8; ++sample) {
      const std::uint64_t tick = tick_rng.below(100);
      const ChurnPosition pos = churn_position(tag.id(), 3, tick, config);
      if (pos.departed) {
        EXPECT_EQ(pos.next_at, UINT64_MAX);  // nothing fires after leaving
        continue;
      }
      ASSERT_GT(pos.next_at, tick);
      ASSERT_LT(pos.next_at, tick + 5000);
      ++finite;
      for (std::uint64_t t = tick + 1; t < pos.next_at; ++t)
        ASSERT_TRUE(same(churn_position(tag.id(), 3, t, config), pos))
            << "changed at " << t << " before next_at " << pos.next_at;
      const ChurnPosition after =
          churn_position(tag.id(), 3, pos.next_at, config);
      EXPECT_FALSE(same(after, pos));
      EXPECT_EQ(after.moves + (after.departed ? 1u : 0u), pos.moves + 1);
    }
  }
  EXPECT_GT(finite, 200u);

  config.churn_move_per_tick = 0.0;
  config.churn_depart_per_tick = 0.0;
  for (const tags::Tag& tag : pop)
    EXPECT_EQ(churn_position(tag.id(), 3, 17, config).next_at, UINT64_MAX);
}

// --- End-to-end accounting --------------------------------------------------

TEST(Deployment, ChurningOverlappingSweepAccountsExactly) {
  const auto pop = uniform(2000, 45);
  DeploymentConfig config;
  config.readers = 8;
  config.channels = 3;
  config.session.seed = 9;
  config.session.keep_records = true;
  config.zone_overlap = 0.3;
  config.churn_move_per_tick = 0.01;
  config.churn_depart_per_tick = 0.003;
  const DeploymentReport report = run_deployment(pop, config);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delivered + report.missing_ids.size() +
                report.undelivered_ids.size(),
            2000u);
  EXPECT_EQ(report.records.size(), report.delivered);
  EXPECT_GT(report.churn_moves, 0u);
  EXPECT_GT(report.churn_departures, 0u);
  EXPECT_GE(report.handoffs, report.churn_moves);

  // Exactly-once: delivered, missing and undelivered are disjoint and
  // together cover the whole population.
  std::unordered_set<TagId, TagIdHash> seen;
  for (const sim::CollectedRecord& record : report.records)
    EXPECT_TRUE(seen.insert(record.id).second) << record.id.to_hex();
  for (const TagId& id : report.missing_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  for (const TagId& id : report.undelivered_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  for (const tags::Tag& tag : pop) EXPECT_EQ(seen.count(tag.id()), 1u);
}

TEST(Deployment, ChannelReportsAreConsistent) {
  const auto pop = uniform(1200, 46);
  DeploymentConfig config;
  config.readers = 7;
  config.channels = 3;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  ASSERT_EQ(report.per_channel.size(), 3u);
  double busy_us = 0.0;
  std::uint64_t rounds = 0;
  for (std::size_t c = 0; c < report.per_channel.size(); ++c) {
    EXPECT_EQ(report.per_channel[c].readers, channel_population(c, 7, 3));
    EXPECT_GT(report.per_channel[c].rounds, 0u);
    busy_us += report.per_channel[c].busy_us;
    rounds += report.per_channel[c].rounds;
  }
  EXPECT_NEAR(busy_us * 1e-6, report.total_busy_s, 1e-6);
  EXPECT_EQ(rounds, report.totals.rounds);
  // Time division across co-channel readers: the makespan exceeds the
  // per-channel maximum share but never the full serialized airtime.
  EXPECT_LT(report.makespan_s, report.total_busy_s);
}

TEST(Deployment, SupervisorDeadlinesScaleWithTheRotation) {
  // 12 readers on one channel: each transmits every 12th tick. Unscaled,
  // the default degraded_after_ticks=2 would flag every reader; the
  // rotation-scaled deadlines must keep a fault-free fleet spotless.
  const auto pop = uniform(1500, 47);
  DeploymentConfig config;
  config.readers = 12;
  config.channels = 1;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(report.transitions.empty());
  for (const obs::ReaderHealth health : report.per_reader_health)
    EXPECT_EQ(health, obs::ReaderHealth::kHealthy);
  for (const std::uint64_t incarnations : report.per_reader_incarnations)
    EXPECT_EQ(incarnations, 1u);
}

TEST(Deployment, FaultsUnderChannelContentionStayExact) {
  const auto pop = uniform(900, 48);
  DeploymentConfig config;
  config.readers = 6;
  config.channels = 2;
  config.session.seed = 13;
  config.zone_overlap = 0.2;
  config.reader_faults.crash_per_tick = 0.05;
  config.reader_faults.stall_per_tick = 0.05;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delivered + report.missing_ids.size() +
                report.undelivered_ids.size(),
            900u);
  EXPECT_GT(report.totals.reader_crashes + report.totals.reader_stalls, 0u);
  EXPECT_FALSE(report.transitions.empty());
}

// The faulty-fleet benchmark scenario at its smoke size: burst loss, framed
// BER with recovery, reader crashes/stalls/restarts, overlap and churn. The
// digest was recorded at commit 206ceae, before the churn scan kept a per-tag
// calendar and the handoff ledger became a per-tag counter; both must leave
// every simulated count, metric and listed ID unchanged.
TEST(Deployment, FaultyFleetSmokeShapeMatchesRecordedDigest) {
  const auto pop =
      tags::TagPopulation::uniform_random_sharded(50000, derive_seed(1, 0), 8);
  DeploymentConfig config;
  config.readers = 16;
  config.channels = 8;
  config.kind = protocols::ProtocolKind::kTpp;
  config.session.seed = 1;
  config.session.keep_records = false;
  config.zone_overlap = 0.1;
  config.churn_move_per_tick = 0.0008;
  config.churn_depart_per_tick = 0.0002;
  config.session.fault.link = fault::LinkModel::kGilbertElliott;
  config.session.fault.downlink_ber = 1e-4;
  config.session.framing.enabled = true;
  config.session.recovery.enabled = true;
  config.reader_faults.crash_per_tick = 0.002;
  config.reader_faults.stall_per_tick = 0.005;
  config.reader_faults.restart_per_tick = 0.002;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.ticks, 41u);
  EXPECT_EQ(report.handoffs, 2440u);
  EXPECT_EQ(report.churn_moves, 1307u);
  EXPECT_EQ(report.churn_departures, 43u);
  EXPECT_EQ(report.missing_ids.size(), 43u);
  EXPECT_EQ(report.undelivered_ids.size(), 6u);
  EXPECT_EQ(fnv1a(deployment_digest(report)), 0x8a9f81772cca6e04ULL);
}

// --- Shard and thread invariance --------------------------------------------

TEST(Deployment, ReportIsInvariantToShardCount) {
  const auto pop = uniform(3000, 49);
  DeploymentConfig config;
  config.readers = 14;
  config.channels = 4;
  config.session.seed = 17;
  config.zone_overlap = 0.25;
  config.churn_move_per_tick = 0.005;
  config.churn_depart_per_tick = 0.001;
  config.shards = 1;
  const std::string baseline = deployment_digest(run_deployment(pop, config));
  for (const std::size_t shards : {2u, 7u}) {
    config.shards = shards;
    EXPECT_EQ(deployment_digest(run_deployment(pop, config)), baseline)
        << "shards=" << shards;
  }
}

TEST(Deployment, PooledRunIsByteIdenticalToSerial) {
  const auto pop = uniform(2500, 50);
  DeploymentConfig config;
  config.readers = 9;
  config.channels = 3;
  config.session.seed = 19;
  config.zone_overlap = 0.2;
  config.churn_move_per_tick = 0.004;
  config.reader_faults.crash_per_tick = 0.02;
  const std::string serial = deployment_digest(run_deployment(pop, config));
  parallel::ThreadPool pool(3);
  EXPECT_EQ(deployment_digest(run_deployment(pop, config, &pool)), serial);
}

TEST(Deployment, InvalidConfigsRejected) {
  const auto pop = uniform(10, 51);
  DeploymentConfig config;
  config.readers = 0;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
  config.readers = 2;
  config.zone_overlap = 1.5;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
  config.zone_overlap = 0.0;
  config.churn_depart_per_tick = 1.0;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
  config.churn_depart_per_tick = 0.0;
  config.handoff_budget = 255;  // the widest per-tag attempt counter
  EXPECT_NO_THROW((void)run_deployment(pop, config));
  config.handoff_budget = 256;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
}

}  // namespace
}  // namespace rfid::core
