// Cross-cutting randomized property tests.
//
// These check identities that must hold for every protocol, population and
// seed: exact-once collection, the accounting identity (time decomposes
// into reader airtime plus per-interaction constants), waste-freeness of
// the polling family, round-trace monotonicity, and fuzzed round trips for
// the bit-level substrate.
#include <gtest/gtest.h>

#include <string>

#include "common/env.hpp"
#include "core/polling.hpp"
#include "sim/verify.hpp"

namespace rfid {
namespace {

using core::ProtocolKind;

struct RandomCase final {
  RandomCase(ProtocolKind k, std::uint64_t s) : kind(k), seed(s) {}
  ProtocolKind kind;
  // gtest names each case after the raw bytes of a parameter it cannot
  // print; explicit zeroed padding keeps those names the same every run.
  std::uint32_t padding = 0;
  std::uint64_t seed;
};

sim::RunResult run_random(const RandomCase& c, std::size_t& n_out,
                          std::size_t& l_out,
                          const tags::TagPopulation** pop_out,
                          bool keep_trace = false) {
  static std::vector<tags::TagPopulation> stash;  // keep populations alive
  Xoshiro256ss rng(c.seed);
  const std::size_t n = 50 + rng.below(2000);
  const std::size_t l = 1 + rng.below(32);
  stash.push_back(tags::TagPopulation::uniform_random(n, rng)
                      .with_random_payloads(l, rng));
  const tags::TagPopulation& pop = stash.back();
  sim::SessionConfig config;
  config.info_bits = l;
  config.seed = c.seed * 2654435761u + 17;
  config.keep_trace = keep_trace;
  n_out = n;
  l_out = l;
  *pop_out = &pop;
  return protocols::make_protocol(c.kind)->run(pop, config);
}

/// MIC, SIC and DFSA walk frame slots, so the polling family's accounting
/// identity and waste-freeness do not apply to them.
bool frame_slotted(ProtocolKind kind) {
  return kind == ProtocolKind::kMic || kind == ProtocolKind::kSic ||
         kind == ProtocolKind::kDfsa;
}

void exact_once_collection(const RandomCase& c) {
  std::size_t n = 0, l = 0;
  const tags::TagPopulation* pop = nullptr;
  const auto result = run_random(c, n, l, &pop);
  EXPECT_EQ(result.metrics.polls, n);
  const auto verify = sim::verify_complete_collection(*pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

void accounting_identity_for_polling_family(const RandomCase& c) {
  // For waste-free polling protocols: total time = reader airtime of every
  // transmitted bit + one (T1 + reply + T2) block per poll. CPP/CP skip the
  // QueryRep prefix.
  std::size_t n = 0, l = 0;
  const tags::TagPopulation* pop = nullptr;
  const auto result = run_random(c, n, l, &pop);
  const phy::C1G2Timing timing;
  const bool bare = c.kind == ProtocolKind::kCpp ||
                    c.kind == ProtocolKind::kPrefixCpp ||
                    c.kind == ProtocolKind::kCodedPolling;
  const double query_rep_bits =
      bare ? 0.0
           : double(result.metrics.polls) * timing.query_rep_bits;
  const double reader_us = timing.reader_us_per_bit *
                           (double(result.metrics.vector_bits) +
                            double(result.metrics.command_bits) +
                            query_rep_bits);
  const double reply_us =
      double(result.metrics.polls) *
      (timing.t1_us + timing.tag_tx_us(l) + timing.t2_us);
  EXPECT_NEAR(result.metrics.time_us, reader_us + reply_us,
              1e-6 * result.metrics.time_us)
      << protocols::to_string(c.kind);
}

void polling_family_has_no_waste(const RandomCase& c) {
  std::size_t n = 0, l = 0;
  const tags::TagPopulation* pop = nullptr;
  const auto result = run_random(c, n, l, &pop);
  EXPECT_EQ(result.metrics.slots_wasted, 0u);
  EXPECT_EQ(result.channel.collision_slots, 0u);
  EXPECT_EQ(result.channel.empty_slots, 0u);
}

void trace_is_monotone_and_matches_rounds(const RandomCase& c) {
  std::size_t n = 0, l = 0;
  const tags::TagPopulation* pop = nullptr;
  const auto result = run_random(c, n, l, &pop, /*keep_trace=*/true);
  EXPECT_EQ(result.trace.size(), result.metrics.rounds);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].time_us_so_far,
              result.trace[i - 1].time_us_so_far);
    EXPECT_GE(result.trace[i].polls_so_far, result.trace[i - 1].polls_so_far);
    EXPECT_EQ(result.trace[i].round, result.trace[i - 1].round + 1);
  }
}

/// One randomized run checked for one property.
class RandomizedRuns : public ::testing::Test {
 public:
  using Property = void (*)(const RandomCase&);
  RandomizedRuns(Property property, RandomCase c)
      : property_(property), case_(c) {}
  void TestBody() override { property_(case_); }

 private:
  Property property_;
  RandomCase case_;
};

/// gtest would instantiate every TEST_P of a suite over one parameter
/// list, so the runs are registered explicitly instead: each property runs
/// only over the protocols it applies to, named as a value-parameterised
/// suite `Fuzz/RandomizedRuns` names them (`<property>/<protocol>_s<seed>`).
const bool kRandomizedRunsRegistered = [] {
  struct Entry final {
    const char* name;
    RandomizedRuns::Property property;
    bool polling_family_only;
  };
  static constexpr Entry kProperties[] = {
      {"ExactOnceCollection", &exact_once_collection, false},
      {"AccountingIdentityForPollingFamily",
       &accounting_identity_for_polling_family, true},
      {"PollingFamilyHasNoWaste", &polling_family_has_no_waste, true},
      {"TraceIsMonotoneAndMatchesRounds",
       &trace_is_monotone_and_matches_rounds, false},
  };
  std::uint64_t seed = 1;
  for (const ProtocolKind kind : protocols::all_protocols()) {
    for (int rep = 0; rep < 3; ++rep) {
      const RandomCase c{kind, 1000 + 37 * seed++};
      const std::string param = std::string(protocols::to_string(kind)) +
                                "_s" + std::to_string(c.seed);
      const std::string value = ::testing::PrintToString(c);
      for (const Entry& entry : kProperties) {
        if (entry.polling_family_only && frame_slotted(kind)) continue;
        const std::string name = std::string(entry.name) + "/" + param;
        ::testing::RegisterTest(
            "Fuzz/RandomizedRuns", name.c_str(), nullptr, value.c_str(),
            __FILE__, __LINE__,
            [property = entry.property, c]() -> RandomizedRuns* {
              return new RandomizedRuns(property, c);
            });
      }
    }
  }
  return true;
}();

TEST(Properties, BitVecAppendReadFuzz) {
  Xoshiro256ss rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    BitVec v;
    std::vector<std::pair<std::uint64_t, unsigned>> chunks;
    for (int c = 0; c < 20; ++c) {
      const unsigned width = 1 + unsigned(rng.below(48));
      const std::uint64_t value =
          rng() & ((width == 64) ? ~0ULL : ((1ULL << width) - 1));
      chunks.emplace_back(value, width);
      v.append_bits(value, width);
    }
    std::size_t pos = 0;
    for (const auto& [value, width] : chunks) {
      EXPECT_EQ(v.read_bits(pos, width), value);
      pos += width;
    }
    EXPECT_EQ(pos, v.size());
    // String round trip as an independent check.
    EXPECT_TRUE(BitVec(v.to_string()) == v);
  }
}

TEST(Properties, TagIdHexFuzzRoundTrip) {
  Xoshiro256ss rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    TagId id;
    for (auto& w : id.words) w = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(TagId::from_hex(id.to_hex()), id);
  }
}

TEST(Properties, CommonPrefixSymmetricAndConsistentWithXor) {
  Xoshiro256ss rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    TagId a, b;
    for (auto& w : a.words) w = static_cast<std::uint32_t>(rng());
    b = a;
    const std::size_t flip = rng.below(kTagIdBits);
    b.set_bit(flip, !b.bit(flip));
    // Flipping bit `flip` bounds the common prefix at exactly flip.
    EXPECT_EQ(a.common_prefix_length(b), flip);
    EXPECT_EQ(b.common_prefix_length(a), flip);
  }
}

TEST(Properties, EnvU64ParsesAndFallsBack) {
  EXPECT_EQ(env_u64("RFID_SURELY_UNSET_VARIABLE", 7), 7u);
  ::setenv("RFID_TEST_ENV_U64", "123", 1);
  EXPECT_EQ(env_u64("RFID_TEST_ENV_U64", 7), 123u);
  ::setenv("RFID_TEST_ENV_U64", "not-a-number", 1);
  EXPECT_EQ(env_u64("RFID_TEST_ENV_U64", 7), 7u);
  ::setenv("RFID_TEST_ENV_U64", "", 1);
  EXPECT_EQ(env_u64("RFID_TEST_ENV_U64", 9), 9u);
  ::unsetenv("RFID_TEST_ENV_U64");
}

}  // namespace
}  // namespace rfid
