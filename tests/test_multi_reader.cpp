// Multi-reader scheduling tests (core/multi_reader.hpp): the collision-free
// partitioned sweep and the supervised, fault-tolerant fleet schedule.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/deployment.hpp"
#include "core/multi_reader.hpp"
#include "obs/stream.hpp"
#include "sim/verify.hpp"

namespace rfid::core {
namespace {

tags::TagPopulation uniform(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return tags::TagPopulation::uniform_random(n, rng);
}

TEST(ReaderOf, PartitionIsBalanced) {
  const auto pop = uniform(8000, 1);
  std::vector<std::size_t> counts(4, 0);
  for (const tags::Tag& tag : pop) ++counts[reader_of(tag.id(), 4, 99)];
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 1800u);
    EXPECT_LT(c, 2200u);
  }
}

TEST(ReaderOf, DeterministicAndSeedDependent) {
  const auto pop = uniform(100, 2);
  std::size_t moved = 0;
  for (const tags::Tag& tag : pop) {
    EXPECT_EQ(reader_of(tag.id(), 3, 7), reader_of(tag.id(), 3, 7));
    moved += reader_of(tag.id(), 3, 7) != reader_of(tag.id(), 3, 8);
  }
  EXPECT_GT(moved, 30u);  // a new partition seed reshuffles zones
}

TEST(MultiReader, CoversInventoryExactlyOnce) {
  const auto pop = uniform(3000, 3);
  MultiReaderConfig config;
  config.readers = 3;
  const auto report = run_multi_reader(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.collected, 3000u);
  EXPECT_EQ(report.per_reader.size(), 3u);
}

TEST(MultiReader, ZonesReplyWithStoredPayloads) {
  Xoshiro256ss rng(12);
  const auto pop =
      tags::TagPopulation::uniform_random(600, rng).with_random_payloads(8, rng);
  MultiReaderConfig config;
  config.readers = 3;
  config.session.info_bits = 8;
  const auto report = run_multi_reader(pop, config);
  ASSERT_TRUE(report.verified);
  sim::RunResult merged;
  for (const sim::RunResult& result : report.per_reader)
    merged.records.insert(merged.records.end(), result.records.begin(),
                          result.records.end());
  const auto verify = sim::verify_complete_collection(pop, merged);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(MultiReader, SingleReaderDegeneratesToPlainRun) {
  const auto pop = uniform(500, 4);
  MultiReaderConfig config;
  config.readers = 1;
  const auto report = run_multi_reader(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_DOUBLE_EQ(report.makespan_s, report.total_busy_s);
  EXPECT_EQ(report.per_reader.front().metrics.polls, 500u);
}

TEST(MultiReader, TimeDivisionMakespanIsSum) {
  const auto pop = uniform(2000, 5);
  MultiReaderConfig config;
  config.readers = 4;
  config.schedule = ReaderSchedule::kTimeDivision;
  const auto report = run_multi_reader(pop, config);
  double sum = 0.0;
  for (const auto& r : report.per_reader) sum += r.exec_time_s();
  EXPECT_NEAR(report.makespan_s, sum, 1e-9);
}

TEST(MultiReader, SpatialParallelMakespanIsMax) {
  const auto pop = uniform(2000, 6);
  MultiReaderConfig config;
  config.readers = 4;
  config.schedule = ReaderSchedule::kSpatialParallel;
  const auto report = run_multi_reader(pop, config);
  double max_t = 0.0;
  for (const auto& r : report.per_reader)
    max_t = std::max(max_t, r.exec_time_s());
  EXPECT_NEAR(report.makespan_s, max_t, 1e-9);
  EXPECT_LT(report.makespan_s, report.total_busy_s);
}

TEST(MultiReader, SpatialParallelismScalesSweeps) {
  // Four isolated zones should sweep ~4x faster than one reader; TPP's flat
  // vector length means near-ideal scaling (only round-granularity loss).
  const auto pop = uniform(8000, 7);
  MultiReaderConfig one;
  one.readers = 1;
  MultiReaderConfig four;
  four.readers = 4;
  four.schedule = ReaderSchedule::kSpatialParallel;
  const double t1 = run_multi_reader(pop, one).makespan_s;
  const double t4 = run_multi_reader(pop, four).makespan_s;
  EXPECT_LT(t4, t1 / 3.0);
  EXPECT_GT(t4, t1 / 5.0);
}

TEST(MultiReader, WorksForEveryProtocol) {
  const auto pop = uniform(900, 8);
  for (const auto kind : protocols::all_protocols()) {
    MultiReaderConfig config;
    config.readers = 3;
    config.kind = kind;
    const auto report = run_multi_reader(pop, config);
    EXPECT_TRUE(report.verified) << protocols::to_string(kind);
  }
}

TEST(MultiReader, NoisyChannelStillCoversExactly) {
  const auto pop = uniform(1500, 21);
  MultiReaderConfig config;
  config.readers = 3;
  config.session.reply_error_rate = 0.2;
  const auto report = run_multi_reader(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.collected, 1500u);
}

TEST(MultiReader, MoreReadersThanTags) {
  const auto pop = uniform(3, 9);
  MultiReaderConfig config;
  config.readers = 8;
  const auto report = run_multi_reader(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.collected, 3u);
}

TEST(MultiReader, EmptyInventory) {
  const tags::TagPopulation empty;
  MultiReaderConfig config;
  config.readers = 2;
  const auto report = run_multi_reader(empty, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.collected, 0u);
  EXPECT_DOUBLE_EQ(report.makespan_s, 0.0);
}

TEST(MultiReader, InvalidReaderCountRejected) {
  const auto pop = uniform(10, 10);
  MultiReaderConfig config;
  config.readers = 0;
  EXPECT_THROW((void)run_multi_reader(pop, config), ContractViolation);
}

// --- Supervised fleet (run_fleet) -------------------------------------------

/// Byte-stable digest of a fleet report for determinism comparisons.
std::string fleet_digest(const FleetReport& report) {
  std::ostringstream os;
  obs::write_json(os, report.totals);
  os << '|' << report.records.size() << '|' << report.ticks << '|'
     << report.handoffs << '|' << report.transitions.size();
  for (const TagId& id : report.undelivered_ids) os << '|' << id.to_hex();
  return os.str();
}

TEST(Fleet, ZeroFaultSweepCollectsEverythingWithoutFaultMachinery) {
  const auto pop = uniform(600, 31);
  FleetConfig config;
  config.readers = 4;
  const FleetReport report = run_fleet(pop, config);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.records.size(), 600u);
  EXPECT_TRUE(report.undelivered_ids.empty());
  EXPECT_EQ(report.handoffs, 0u);
  EXPECT_TRUE(report.transitions.empty());
  for (const FleetReaderReport& reader : report.per_reader) {
    EXPECT_EQ(reader.incarnations, 1u);
    EXPECT_EQ(reader.crashes, 0u);
    EXPECT_EQ(reader.stalls, 0u);
    EXPECT_EQ(reader.restarts, 0u);
    EXPECT_EQ(reader.final_health, obs::ReaderHealth::kHealthy);
  }
  EXPECT_EQ(report.totals.reader_crashes, 0u);
  EXPECT_EQ(report.totals.handoffs, 0u);

  // Determinism: the identical config replays the identical sweep.
  EXPECT_EQ(fleet_digest(run_fleet(pop, config)), fleet_digest(report));
}

TEST(Fleet, CrashesHandOffTagsAndAccountingStaysExact) {
  const auto pop = uniform(800, 32);
  FleetConfig config;
  config.readers = 4;
  config.session.seed = 12;
  // High rates: the sweep only lasts a dozen-odd ticks, and the test needs
  // actual incidents (deterministic in the seed, so not flaky) to exercise
  // handoff and supervision, not just survive them.
  config.reader_faults.crash_per_tick = 0.15;
  config.reader_faults.stall_per_tick = 0.20;
  const FleetReport report = run_fleet(pop, config);

  EXPECT_TRUE(report.verified);
  // Exact delivered-or-listed accounting, the fleet's core promise.
  EXPECT_EQ(report.records.size() + report.missing_ids.size() +
                report.undelivered_ids.size(),
            800u);
  // This fault plan reliably produces incidents at these rates; if it ever
  // stopped doing so the test would be vacuous, so assert it loudly.
  std::uint64_t crashes = 0, stalls = 0;
  for (const FleetReaderReport& reader : report.per_reader) {
    crashes += reader.crashes;
    stalls += reader.stalls;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(report.handoffs, 0u);
  EXPECT_FALSE(report.transitions.empty());
  EXPECT_EQ(report.totals.reader_crashes, crashes);
  EXPECT_EQ(report.totals.handoffs, report.handoffs);

  // Deterministic replay, faults and all.
  EXPECT_EQ(fleet_digest(run_fleet(pop, config)), fleet_digest(report));
}

TEST(Fleet, RelentlessCrashesStillDeliverOrListEveryTag) {
  // A hostile fault plan: crashes every few ticks, tiny restart budget, so
  // readers go permanently down and handoff budgets run dry. Whatever
  // happens, no tag may vanish.
  const auto pop = uniform(400, 33);
  FleetConfig config;
  config.readers = 3;
  config.session.seed = 5;
  config.reader_faults.crash_per_tick = 0.30;
  config.supervisor.max_restarts = 2;
  config.handoff_budget = 2;
  config.max_ticks = 4096;
  const FleetReport report = run_fleet(pop, config);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.records.size() + report.missing_ids.size() +
                report.undelivered_ids.size(),
            400u);
}

TEST(Fleet, StallsDelayButDoNotLoseTags) {
  const auto pop = uniform(500, 34);
  FleetConfig zero_faults;
  zero_faults.readers = 2;
  FleetConfig stalling = zero_faults;
  stalling.reader_faults.stall_per_tick = 0.2;
  stalling.reader_faults.stall_ticks_min = 2;
  stalling.reader_faults.stall_ticks_max = 4;

  const FleetReport clean = run_fleet(pop, zero_faults);
  const FleetReport stalled = run_fleet(pop, stalling);
  EXPECT_TRUE(stalled.verified);
  EXPECT_EQ(stalled.records.size(), clean.records.size());
  EXPECT_GT(stalled.ticks, clean.ticks);  // stalls cost ticks, not tags
  std::uint64_t stalls = 0;
  for (const FleetReaderReport& reader : stalled.per_reader) {
    stalls += reader.stalls;
  }
  EXPECT_GT(stalls, 0u);
}

TEST(Fleet, InvalidConfigsRejected) {
  const auto pop = uniform(10, 35);
  FleetConfig config;
  config.readers = 0;
  EXPECT_THROW((void)run_fleet(pop, config), ContractViolation);
}

// --- The fleet atop the deployment layer ------------------------------------

/// run_fleet is a wrapper over core::Deployment; mirror its config so the
/// shard knob (which FleetConfig does not expose) can be varied directly.
DeploymentConfig fleet_as_deployment(const FleetConfig& config) {
  DeploymentConfig deployment;
  deployment.readers = config.readers;
  deployment.channels = config.readers;
  deployment.kind = config.kind;
  deployment.session = config.session;
  deployment.partition_seed = config.partition_seed;
  deployment.reader_faults = config.reader_faults;
  deployment.supervisor = config.supervisor;
  deployment.handoff_budget = config.handoff_budget;
  deployment.max_ticks = config.max_ticks;
  return deployment;
}

std::string deployment_digest(const DeploymentReport& report) {
  std::ostringstream os;
  obs::write_json(os, report.totals);
  os << '|' << report.delivered << '|' << report.ticks << '|'
     << report.handoffs << '|' << report.transitions.size();
  for (const TagId& id : report.missing_ids) os << '|' << id.to_hex();
  for (const TagId& id : report.undelivered_ids) os << '|' << id.to_hex();
  return os.str();
}

TEST(Fleet, ReportIsByteIdenticalAcrossShardCounts) {
  // The fleet workload (faults on, so handoffs and restarts fire) run at
  // 1, 2 and 7 execution shards must fold to the same bytes — the shard
  // knob is execution grain, never semantics.
  const auto pop = uniform(1000, 36);
  FleetConfig fleet;
  fleet.readers = 7;
  fleet.session.seed = 23;
  fleet.reader_faults.crash_per_tick = 0.05;
  fleet.reader_faults.stall_per_tick = 0.05;
  DeploymentConfig config = fleet_as_deployment(fleet);
  config.shards = 1;
  const std::string baseline = deployment_digest(run_deployment(pop, config));
  for (const std::size_t shards : {2u, 7u}) {
    config.shards = shards;
    EXPECT_EQ(deployment_digest(run_deployment(pop, config)), baseline)
        << "shards=" << shards;
  }
  // And the wrapper reproduces the same sweep outcome.
  const FleetReport wrapped = run_fleet(pop, fleet);
  const DeploymentReport direct = run_deployment(pop, config);
  EXPECT_EQ(wrapped.records.size(), direct.delivered);
  EXPECT_EQ(wrapped.ticks, direct.ticks);
  EXPECT_EQ(wrapped.handoffs, direct.handoffs);
}

TEST(Fleet, OverlapZoneTagsDeliveredOrListedExactlyOnce) {
  // Heavy overlap + crashes: boundary tags are reachable by two readers
  // and get rehomed on faults, the classic double-count trap. Every tag
  // must land in exactly one of records / missing / undelivered.
  const auto pop = uniform(1200, 37);
  DeploymentConfig config;
  config.readers = 5;
  config.channels = 5;
  config.session.seed = 29;
  config.session.keep_records = true;
  config.zone_overlap = 0.6;
  config.reader_faults.crash_per_tick = 0.10;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);

  std::unordered_set<TagId, TagIdHash> seen;
  for (const sim::CollectedRecord& record : report.records)
    EXPECT_TRUE(seen.insert(record.id).second) << record.id.to_hex();
  for (const TagId& id : report.missing_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  for (const TagId& id : report.undelivered_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  EXPECT_EQ(seen.size(), 1200u);
  for (const tags::Tag& tag : pop) EXPECT_EQ(seen.count(tag.id()), 1u);
}

}  // namespace
}  // namespace rfid::core
