// Wide parameterized sweeps over protocol knobs — the configurations a
// deployment might actually pick — plus a state-machine conformance replay.
#include <gtest/gtest.h>

#include "core/polling.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/mic.hpp"
#include "protocols/tree_polling.hpp"
#include "tags/state_machine.hpp"

namespace rfid {
namespace {

// --- MIC frame-factor grid --------------------------------------------------

class MicFrameFactorSweep : public ::testing::TestWithParam<double> {};

TEST_P(MicFrameFactorSweep, CompletesAndCollectsExactly) {
  const double factor = GetParam();
  Xoshiro256ss rng(11);
  const auto pop = tags::TagPopulation::uniform_random(2000, rng);
  sim::SessionConfig config;
  config.seed = 12;
  const auto result =
      protocols::Mic(protocols::Mic::Config{.frame_factor = factor})
          .run(pop, config);
  EXPECT_EQ(result.metrics.polls, 2000u);
  EXPECT_EQ(result.channel.collision_slots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Factors, MicFrameFactorSweep,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
                                           4.0));

// --- EHPP selection-modulus grid ---------------------------------------------

class EhppModulusSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EhppModulusSweep, SubsetSelectionWorksAtAnyResolution) {
  const std::uint64_t modulus = GetParam();
  Xoshiro256ss rng(13);
  const auto pop = tags::TagPopulation::uniform_random(3000, rng);
  sim::SessionConfig config;
  config.seed = 14;
  const auto result =
      protocols::Ehpp(
          protocols::Ehpp::Config{.selection_modulus = modulus})
          .run(pop, config);
  EXPECT_EQ(result.metrics.polls, 3000u);
}

// Powers of two take the kernels' mask reduction; the rest (a round
// number, a prime, 2^29 + 11 near the 30-bit frame limit) the exact `%`.
INSTANTIATE_TEST_SUITE_P(Moduli, EhppModulusSweep,
                         ::testing::Values(1u << 10, 1u << 16, 1u << 20,
                                           1u << 29, 1000u, 999983u,
                                           (1u << 29) + 11u));

// --- Payload-length grid across the fast protocols ---------------------------

struct PayloadCase final {
  PayloadCase(core::ProtocolKind k, std::size_t b) : kind(k), bits(b) {}
  core::ProtocolKind kind;
  // gtest names each case after the raw bytes of a parameter it cannot
  // print; explicit zeroed padding keeps those names the same every run.
  std::uint32_t padding = 0;
  std::size_t bits;
};

class PayloadSweep : public ::testing::TestWithParam<PayloadCase> {};

TEST_P(PayloadSweep, VerifiedForEveryPayloadLength) {
  const auto kind = GetParam().kind;
  const auto bits = GetParam().bits;
  Xoshiro256ss rng(15);
  const auto pop = tags::TagPopulation::uniform_random(400, rng)
                       .with_random_payloads(bits, rng);
  sim::SessionConfig config;
  config.info_bits = bits;
  config.seed = 16;
  const auto report = core::collect_info(kind, pop, config);
  EXPECT_TRUE(report.verification.ok) << report.verification.message;
  // Longer payloads must cost proportionally: check tag_bits bookkeeping.
  EXPECT_EQ(report.result.metrics.tag_bits, 400u * bits);
}

std::vector<PayloadCase> payload_cases() {
  std::vector<PayloadCase> cases;
  for (const auto kind : {core::ProtocolKind::kHpp, core::ProtocolKind::kTpp,
                          core::ProtocolKind::kMic})
    for (const std::size_t bits : {1u, 8u, 16u, 32u, 64u, 128u})
      cases.push_back(PayloadCase{kind, bits});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PayloadSweep, ::testing::ValuesIn(payload_cases()),
    [](const auto& param_info) {
      return std::string(protocols::to_string(param_info.param.kind)) + "_l" +
             std::to_string(param_info.param.bits);
    });

// --- Longer payloads shrink the relative protocol gap ------------------------

TEST(PayloadScaling, RelativeGapShrinksWithPayload) {
  // Table I vs Table III trend: as l grows, reply airtime dominates and
  // TPP's advantage over HPP narrows in relative terms.
  Xoshiro256ss rng(17);
  const auto pop = tags::TagPopulation::uniform_random(3000, rng);
  sim::SessionConfig config;
  config.seed = 18;
  const auto ratio_at = [&](std::size_t l) {
    config.info_bits = l;
    const double hpp = protocols::make_protocol(core::ProtocolKind::kHpp)
                           ->run(pop, config)
                           .exec_time_s();
    const double tpp = protocols::make_protocol(core::ProtocolKind::kTpp)
                           ->run(pop, config)
                           .exec_time_s();
    return hpp / tpp;
  };
  EXPECT_GT(ratio_at(1), ratio_at(32));
}

// --- State-machine conformance of the polling interaction --------------------

TEST(StateMachineConformance, PollingSessionMapsToLegalTransitions) {
  // Replay the abstract polling interaction on C1G2 state machines: each
  // poll is Query(slot 0 for the addressed tag) -> Reply -> ACK ->
  // inventory complete; unaddressed tags sit out via the session-flag
  // mechanism. No illegal command may ever be issued.
  constexpr std::size_t kTags = 64;
  std::vector<tags::TagStateMachine> machines(kTags);
  for (std::size_t target = 0; target < kTags; ++target) {
    for (std::size_t i = 0; i < kTags; ++i) {
      // The polling vector addresses exactly one tag: model it as that tag
      // loading slot 0 while the rest skip the round (wrong target flag
      // from their perspective — they did not match the vector).
      if (i == target) {
        EXPECT_TRUE(machines[i].on_query(machines[i].inventoried(), 0));
      }
    }
    EXPECT_EQ(machines[target].state(), tags::TagState::kReply);
    EXPECT_TRUE(machines[target].on_ack());
    EXPECT_TRUE(machines[target].on_inventory_complete());
    EXPECT_EQ(machines[target].state(), tags::TagState::kReady);
  }
  for (const auto& machine : machines) {
    EXPECT_EQ(machine.illegal_commands(), 0u);
    // Every tag was inventoried exactly once: all flags flipped to B.
    EXPECT_EQ(machine.inventoried(), tags::SessionFlag::kB);
  }
}

}  // namespace
}  // namespace rfid
