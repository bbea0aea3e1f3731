// Tests for the Enhanced Hash Polling Protocol (paper Section III-D).
#include <gtest/gtest.h>

#include <vector>

#include "analysis/ehpp_model.hpp"
#include "common/hash.hpp"
#include "common/math_util.hpp"
#include "fault/recovery.hpp"
#include "obs/stream.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "sim/session.hpp"
#include "sim/verify.hpp"

namespace rfid::protocols {
namespace {

sim::RunResult run_ehpp(std::size_t n, std::uint64_t seed,
                        Ehpp::Config config = Ehpp::Config()) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig session;
  session.seed = seed * 31 + 5;
  return Ehpp(config).run(pop, session);
}

TEST(Ehpp, CompleteCollection) {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(3000, rng)
                       .with_random_payloads(8, rng);
  sim::SessionConfig session;
  session.info_bits = 8;
  const auto result = Ehpp().run(pop, session);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(Ehpp, NoSlotWaste) {
  const auto result = run_ehpp(2000, 2);
  EXPECT_EQ(result.metrics.polls, 2000u);
  EXPECT_EQ(result.channel.collision_slots, 0u);
  EXPECT_EQ(result.channel.empty_slots, 0u);
}

TEST(Ehpp, SmallPopulationEqualsHpp) {
  // The paper's tables show EHPP == HPP at n = 100: below the optimal
  // subset size no circle command is issued. Times must agree exactly
  // (HPP counts its init as command bits, EHPP as vector bits, so compare
  // total time and poll count rather than the w split).
  Xoshiro256ss rng(3);
  const auto pop = tags::TagPopulation::uniform_random(100, rng);
  sim::SessionConfig session;
  session.seed = 77;
  const auto ehpp = Ehpp().run(pop, session);
  const auto hpp = Hpp().run(pop, session);
  EXPECT_DOUBLE_EQ(ehpp.metrics.time_us, hpp.metrics.time_us);
  EXPECT_EQ(ehpp.metrics.circles, 0u);
  EXPECT_EQ(ehpp.metrics.vector_bits,
            hpp.metrics.vector_bits + hpp.metrics.command_bits);
}

TEST(Ehpp, VectorLengthStableAcrossPopulations) {
  // Fig. 10: EHPP's w stays ~9 bits regardless of n (l_c = 128).
  const double w_small = run_ehpp(5000, 4).avg_vector_bits();
  const double w_large = run_ehpp(40000, 5).avg_vector_bits();
  EXPECT_NEAR(w_small, w_large, 0.8);
  EXPECT_NEAR(w_small, 9.0, 1.0);
}

TEST(Ehpp, BeatsHppAtScale) {
  Xoshiro256ss rng(6);
  const auto pop = tags::TagPopulation::uniform_random(20000, rng);
  sim::SessionConfig session;
  session.seed = 99;
  const double w_hpp = Hpp().run(pop, session).avg_vector_bits();
  const double w_ehpp = Ehpp().run(pop, session).avg_vector_bits();
  EXPECT_LT(w_ehpp, w_hpp - 3.0);
}

TEST(Ehpp, LongerCircleCommandRaisesVector) {
  // Fig. 5: w increases with l_c.
  const double w_100 =
      run_ehpp(20000, 7, Ehpp::Config{.circle_command_bits = 100})
          .avg_vector_bits();
  const double w_400 =
      run_ehpp(20000, 8, Ehpp::Config{.circle_command_bits = 400})
          .avg_vector_bits();
  EXPECT_LT(w_100, w_400);
}

TEST(Ehpp, UsesMultipleCirclesAtScale) {
  const auto result = run_ehpp(10000, 9);
  EXPECT_GT(result.metrics.circles, 10u);
}

TEST(Ehpp, EffectiveSubsetSizeFollowsOptimizer) {
  const Ehpp defaulted;
  EXPECT_EQ(defaulted.effective_subset_size(),
            analysis::ehpp_optimal_subset_size(128.0, 32.0));
  const Ehpp pinned(Ehpp::Config{.subset_size = 500});
  EXPECT_EQ(pinned.effective_subset_size(), 500u);
}

TEST(Ehpp, MisconfiguredSubsetSizeStillCompletes) {
  // Robustness: a pathological subset size must degrade, not break.
  const auto tiny = run_ehpp(3000, 10, Ehpp::Config{.subset_size = 5});
  EXPECT_EQ(tiny.metrics.polls, 3000u);
  const auto huge = run_ehpp(3000, 11, Ehpp::Config{.subset_size = 100000});
  EXPECT_EQ(huge.metrics.polls, 3000u);
}

TEST(Ehpp, OptimalSubsetBeatsNeighbours) {
  // Ablation in miniature: the optimizer's n* should beat 4x-off settings.
  const std::size_t star = Ehpp().effective_subset_size();
  const double w_star = run_ehpp(20000, 12).avg_vector_bits();
  const double w_small =
      run_ehpp(20000, 12, Ehpp::Config{.subset_size = star / 4})
          .avg_vector_bits();
  const double w_big =
      run_ehpp(20000, 12, Ehpp::Config{.subset_size = star * 4})
          .avg_vector_bits();
  EXPECT_LT(w_star, w_small);
  EXPECT_LT(w_star, w_big);
}

TEST(Ehpp, DeterministicReplay) {
  const auto a = run_ehpp(2500, 13);
  const auto b = run_ehpp(2500, 13);
  EXPECT_EQ(a.metrics.vector_bits, b.metrics.vector_bits);
  EXPECT_EQ(a.metrics.circles, b.metrics.circles);
  EXPECT_DOUBLE_EQ(a.metrics.time_us, b.metrics.time_us);
}

class EhppPopulationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EhppPopulationSweep, CompleteAndWasteFree) {
  const std::size_t n = GetParam();
  const auto result = run_ehpp(n, 17 * n + 3);
  EXPECT_EQ(result.metrics.polls, n);
  EXPECT_EQ(result.channel.collision_slots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EhppPopulationSweep,
                         ::testing::Values(1, 2, 10, 100, 150, 500, 1000,
                                           5000, 12000));

/// The per-tag membership loop EHPP ran before the batched split:
/// tag_index_mod on each Tag object, a stable partition in index order.
struct ReferenceSplit final {
  std::vector<const tags::Tag*> joined;
  std::vector<const tags::Tag*> kept;
};

ReferenceSplit reference_split(const tags::TagSoA& active, std::uint64_t seed,
                               std::uint64_t modulus,
                               std::uint64_t threshold) {
  ReferenceSplit split;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const tags::Tag* tag = active.tag(i);
    (tag_index_mod(seed, tag->id(), modulus) < threshold ? split.joined
                                                         : split.kept)
        .push_back(tag);
  }
  return split;
}

class EhppCircleSplit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EhppCircleSplit, EveryCircleMatchesTheReferenceLoop) {
  const std::uint64_t modulus = GetParam();
  Xoshiro256ss rng(2024);
  const auto pop = tags::TagPopulation::uniform_random(5000, rng);
  sim::SessionConfig config;
  config.seed = 99;
  sim::Session session(pop, config);
  tags::TagSoA active = make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  RoundEngine engine(session, recovery);
  Ehpp::Config ehpp_config;
  ehpp_config.selection_modulus = modulus;
  const std::size_t subset_target = Ehpp(ehpp_config).effective_subset_size();

  tags::TagSoA circle_joined;  // reused across circles, as Ehpp::run does
  std::size_t circles = 0;
  while (active.size() > subset_target) {
    // On a clean, unframed channel the circle seed is the session's next
    // protocol-RNG draw; f follows the F·n*/n_rem rule.
    Xoshiro256ss peek = session.protocol_rng();
    const std::uint64_t seed = peek() & 0xFFFFFFFFFFFFull;
    const std::uint64_t threshold = modulus * subset_target / active.size();
    const ReferenceSplit want =
        reference_split(active, seed, modulus, threshold);

    // The wrapper on a copy: both sides, in order.
    tags::TagSoA kept = active;
    tags::TagSoA joined;
    kept.split_circle(seed, modulus, threshold, joined, engine.hash_backend());
    ASSERT_EQ(joined.size(), want.joined.size()) << "circle " << circles;
    ASSERT_EQ(kept.size(), want.kept.size()) << "circle " << circles;
    for (std::size_t i = 0; i < joined.size(); ++i) {
      EXPECT_EQ(joined.tag(i), want.joined[i]);
      const TagId& id = want.joined[i]->id();
      EXPECT_EQ(joined.id_hi(i),
                (std::uint64_t{id.words[0]} << 32) | id.words[1]);
      EXPECT_EQ(joined.id_lo(i), std::uint64_t{id.words[2]});
    }
    for (std::size_t i = 0; i < kept.size(); ++i)
      EXPECT_EQ(kept.tag(i), want.kept[i]);

    // The protocol's own circle: the kept remainder in order, and exactly
    // the reference joiners polled (one poll each on a clean channel).
    const std::uint64_t polls_before = session.metrics().polls;
    ASSERT_TRUE(run_ehpp_circle(session, engine, active, circle_joined,
                                ehpp_config, subset_target));
    ASSERT_EQ(active.size(), want.kept.size()) << "circle " << circles;
    for (std::size_t i = 0; i < active.size(); ++i)
      EXPECT_EQ(active.tag(i), want.kept[i]) << "circle " << circles;
    EXPECT_EQ(session.metrics().polls - polls_before, want.joined.size())
        << "circle " << circles;
    ++circles;
  }
  EXPECT_GE(circles, 10u);
}

INSTANTIATE_TEST_SUITE_P(Moduli, EhppCircleSplit,
                         ::testing::Values(std::uint64_t{1} << 20,
                                           std::uint64_t{1000003}));

TEST(EhppCircleScratch, StaleJoinedRunsTheSameCircleAsAFreshOne) {
  // run_ehpp_circle replaces whatever the caller's `joined` scratch holds.
  // Two identical sessions drain side by side: one hands every circle a
  // fresh scratch, the other one scratch that, before each circle, still
  // holds the previous circle's whole input (its joiners, already read,
  // and more tags than the new circle's input). Every circle must leave
  // the same remainder, in order, and the same metrics.
  Xoshiro256ss rng(4242);
  const auto pop = tags::TagPopulation::uniform_random(5000, rng);
  sim::SessionConfig config;
  config.seed = 77;
  sim::Session fresh_session(pop, config);
  sim::Session reused_session(pop, config);
  tags::TagSoA fresh_active = make_devices(fresh_session);
  tags::TagSoA reused_active = make_devices(reused_session);
  fault::RecoveryCoordinator fresh_recovery(config.recovery);
  fault::RecoveryCoordinator reused_recovery(config.recovery);
  RoundEngine fresh_engine(fresh_session, fresh_recovery);
  RoundEngine reused_engine(reused_session, reused_recovery);
  const Ehpp::Config ehpp_config;
  const std::uint64_t modulus = ehpp_config.selection_modulus;
  const std::size_t subset_target = Ehpp(ehpp_config).effective_subset_size();

  tags::TagSoA reused;
  tags::TagSoA previous_input;
  std::size_t circles = 0;
  while (!fresh_active.empty()) {
    if (circles > 0) {
      // f = F: every tag of the previous input joins the stale scratch.
      previous_input.split_circle(circles, modulus, modulus, reused,
                                  reused_engine.hash_backend());
      ASSERT_GT(reused.size(), reused_active.size()) << "circle " << circles;
    }
    previous_input = reused_active;
    tags::TagSoA fresh;
    ASSERT_TRUE(run_ehpp_circle(fresh_session, fresh_engine, fresh_active,
                                fresh, ehpp_config, subset_target));
    ASSERT_TRUE(run_ehpp_circle(reused_session, reused_engine, reused_active,
                                reused, ehpp_config, subset_target));
    ASSERT_EQ(reused_active.size(), fresh_active.size())
        << "circle " << circles;
    for (std::size_t i = 0; i < fresh_active.size(); ++i)
      EXPECT_EQ(reused_active.tag(i), fresh_active.tag(i))
          << "circle " << circles;
    std::string fresh_json;
    std::string reused_json;
    obs::append_json(fresh_json, fresh_session.metrics());
    obs::append_json(reused_json, reused_session.metrics());
    ASSERT_EQ(reused_json, fresh_json) << "circle " << circles;
    ++circles;
  }
  EXPECT_TRUE(reused_active.empty());
  EXPECT_GE(circles, 10u);
}

}  // namespace
}  // namespace rfid::protocols
