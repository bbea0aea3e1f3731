// Missing-tag scenarios (the paper's Section I anti-theft use case) across
// protocols, rates, and edge cases.
#include <gtest/gtest.h>

#include "core/polling.hpp"

namespace rfid {
namespace {

using core::ProtocolKind;

struct MissingCase final {
  MissingCase(ProtocolKind k, std::size_t tags, std::size_t every)
      : kind(k), n(tags), missing_every(every) {}
  ProtocolKind kind;
  // gtest names each case after the raw bytes of a parameter it cannot
  // print; explicit zeroed padding keeps those names the same every run.
  std::uint32_t padding = 0;
  std::size_t n;
  std::size_t missing_every;  ///< every k-th tag is absent
};

class MissingSweep : public ::testing::TestWithParam<MissingCase> {};

TEST_P(MissingSweep, ExactAndAccounted) {
  const auto kind = GetParam().kind;
  const auto n = GetParam().n;
  const auto every = GetParam().missing_every;
  Xoshiro256ss rng(n + every);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  std::unordered_set<TagId, TagIdHash> present;
  std::size_t expected_missing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % every == 0)
      ++expected_missing;
    else
      present.insert(pop[i].id());
  }
  sim::SessionConfig config;
  config.seed = 17;
  const auto report = core::find_missing_tags(kind, pop, present, config);
  EXPECT_TRUE(report.exact) << protocols::to_string(kind);
  EXPECT_EQ(report.missing.size(), expected_missing);
  EXPECT_EQ(report.result.metrics.polls, n - expected_missing);
  EXPECT_EQ(report.result.metrics.missing, expected_missing);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MissingSweep,
    ::testing::Values(MissingCase{ProtocolKind::kTpp, 1000, 2},
                      MissingCase{ProtocolKind::kTpp, 1000, 50},
                      MissingCase{ProtocolKind::kHpp, 1000, 7},
                      MissingCase{ProtocolKind::kEhpp, 2000, 9},
                      MissingCase{ProtocolKind::kMic, 1500, 4},
                      MissingCase{ProtocolKind::kSic, 500, 3},
                      MissingCase{ProtocolKind::kCpp, 300, 5},
                      MissingCase{ProtocolKind::kCodedPolling, 600, 6},
                      MissingCase{ProtocolKind::kPrefixCpp, 300, 4}),
    [](const auto& param_info) {
      return std::string(protocols::to_string(param_info.param.kind)) + "_n" +
             std::to_string(param_info.param.n) + "_e" +
             std::to_string(param_info.param.missing_every);
    });

TEST(MissingTags, AbsentPollsCostTimeButLessThanReplies) {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(500, rng);
  std::unordered_set<TagId, TagIdHash> all_present, half_present;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    all_present.insert(pop[i].id());
    if (i % 2 == 0) half_present.insert(pop[i].id());
  }
  sim::SessionConfig config;
  config.seed = 2;
  config.info_bits = 32;  // make replies expensive so absence is visible
  const auto full =
      core::find_missing_tags(ProtocolKind::kTpp, pop, all_present, config);
  const auto half =
      core::find_missing_tags(ProtocolKind::kTpp, pop, half_present, config);
  EXPECT_TRUE(half.exact);
  EXPECT_LT(half.result.exec_time_s(), full.result.exec_time_s());
}

TEST(MissingTags, MissingIdsAreSortedAndUnique) {
  Xoshiro256ss rng(3);
  const auto pop = tags::TagPopulation::uniform_random(200, rng);
  std::unordered_set<TagId, TagIdHash> present;
  for (std::size_t i = 100; i < 200; ++i) present.insert(pop[i].id());
  const auto report =
      core::find_missing_tags(ProtocolKind::kHpp, pop, present, {});
  ASSERT_EQ(report.missing.size(), 100u);
  for (std::size_t i = 1; i < report.missing.size(); ++i)
    EXPECT_LT(report.missing[i - 1], report.missing[i]);
}

TEST(MissingTags, StrangerTagsInPresentSetIgnored) {
  // Tags in the zone but not in the expected inventory never obstruct the
  // poll (they are not scheduled; their IDs simply sit in `present`).
  Xoshiro256ss rng(4);
  const auto pop = tags::TagPopulation::uniform_random(100, rng);
  const auto strangers = tags::TagPopulation::uniform_random(50, rng);
  std::unordered_set<TagId, TagIdHash> present;
  for (const tags::Tag& tag : pop) present.insert(tag.id());
  for (const tags::Tag& tag : strangers) present.insert(tag.id());
  const auto report =
      core::find_missing_tags(ProtocolKind::kTpp, pop, present, {});
  EXPECT_TRUE(report.exact);
  EXPECT_TRUE(report.missing.empty());
}

}  // namespace
}  // namespace rfid
