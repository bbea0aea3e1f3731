// Closed-form time projections vs the simulator: each validates the other.
#include <gtest/gtest.h>

#include "common/math_util.hpp"
#include "core/polling.hpp"
#include "core/projection.hpp"

namespace rfid::core {
namespace {

double simulated_time_s(ProtocolKind kind, std::size_t n, std::size_t l,
                        std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.info_bits = l;
  config.seed = seed + 1;
  config.keep_records = false;
  return protocols::make_protocol(kind)->run(pop, config).exec_time_s();
}

struct ProjectionCase final {
  ProjectionCase(ProtocolKind k, std::size_t tags, std::size_t info_bits,
                 double tol)
      : kind(k), n(tags), l(info_bits), tolerance(tol) {}
  ProtocolKind kind;
  // gtest names each case after the raw bytes of a parameter it cannot
  // print; explicit zeroed padding keeps those names the same every run.
  std::uint32_t padding = 0;
  std::size_t n;
  std::size_t l;
  double tolerance;  ///< relative
};

class ProjectionSweep : public ::testing::TestWithParam<ProjectionCase> {};

TEST_P(ProjectionSweep, ModelTracksSimulation) {
  const auto kind = GetParam().kind;
  const auto n = GetParam().n;
  const auto l = GetParam().l;
  const auto tolerance = GetParam().tolerance;
  const auto projected = projected_protocol_time_s(kind, n, l);
  ASSERT_TRUE(projected.has_value());
  const double simulated = simulated_time_s(kind, n, l, 1234 + n);
  EXPECT_LT(relative_difference(*projected, simulated), tolerance)
      << protocols::to_string(kind) << " projected " << *projected
      << " vs simulated " << simulated;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProjectionSweep,
    ::testing::Values(
        ProjectionCase{ProtocolKind::kCpp, 1000, 1, 1e-9},    // exact
        ProjectionCase{ProtocolKind::kCpp, 5000, 32, 1e-9},
        ProjectionCase{ProtocolKind::kCodedPolling, 1000, 1, 0.01},
        ProjectionCase{ProtocolKind::kHpp, 5000, 1, 0.03},
        ProjectionCase{ProtocolKind::kHpp, 20000, 16, 0.03},
        ProjectionCase{ProtocolKind::kEhpp, 10000, 1, 0.05},
        ProjectionCase{ProtocolKind::kTpp, 10000, 1, 0.05},
        ProjectionCase{ProtocolKind::kTpp, 30000, 32, 0.05}),
    [](const auto& param_info) {
      return std::string(protocols::to_string(param_info.param.kind)) + "_n" +
             std::to_string(param_info.param.n) + "_l" +
             std::to_string(param_info.param.l);
    });

TEST(Projection, UnmodeledProtocolsReturnNullopt) {
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kMic, 100, 1));
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kSic, 100, 1));
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kDfsa, 100, 1));
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kPrefixCpp, 100, 1));
}

TEST(Projection, OrderingMatchesPaper) {
  const std::size_t n = 10000;
  const double cpp = *projected_protocol_time_s(ProtocolKind::kCpp, n, 1);
  const double cp =
      *projected_protocol_time_s(ProtocolKind::kCodedPolling, n, 1);
  const double hpp = *projected_protocol_time_s(ProtocolKind::kHpp, n, 1);
  const double ehpp = *projected_protocol_time_s(ProtocolKind::kEhpp, n, 1);
  const double tpp = *projected_protocol_time_s(ProtocolKind::kTpp, n, 1);
  EXPECT_LT(tpp, ehpp);
  EXPECT_LT(ehpp, hpp);
  EXPECT_LT(hpp, cp);
  EXPECT_LT(cp, cpp);
}

}  // namespace
}  // namespace rfid::core
