#include "protocols/adaptive_polling.hpp"

#include <vector>

#include "analysis/degradation.hpp"
#include "fault/recovery.hpp"
#include "protocols/round_engine.hpp"

namespace rfid::protocols {

sim::RunResult AdaptivePolling::run(const tags::TagPopulation& population,
                                    const sim::SessionConfig& config) const {
  // The degradation monitor lives in the session (it sees every downlink
  // attempt); ADAPT is the only protocol that switches it on.
  sim::SessionConfig session_config = config;
  session_config.degradation.enabled = true;
  sim::Session session(population, session_config);

  tags::TagSoA active = make_devices(session);
  tags::TagSoA joined;  // EHPP-tier circle subsets, reused across circles
  fault::RecoveryCoordinator recovery(config.recovery);
  RoundEngine engine(session, recovery);
  TppRoundPolicy tpp_policy(config_.tpp);
  HppRoundPolicy hpp_policy(config_.hpp);
  const std::size_t subset_target = Ehpp(config_.ehpp).effective_subset_size();

  fault::RecoveryCoordinator::InitLadder ladder(config.recovery.retry_budget);
  while (!active.empty()) {
    bool round_ran = true;
    switch (session.degradation_tier(active.size())) {
      case analysis::PollingTier::kTpp:
        round_ran = engine.run_round(active, tpp_policy);
        break;
      case analysis::PollingTier::kEhpp:
        session.check_round_budget();
        round_ran = run_ehpp_circle(session, engine, active, joined,
                                    config_.ehpp, subset_target);
        break;
      case analysis::PollingTier::kHpp:
        round_ran = engine.run_round(active, hpp_policy);
        break;
    }
    if (round_ran) {
      ladder.note_success();
      continue;
    }
    // The framed init/circle command exhausted its retransmission budget;
    // same bounded give-up-loudly policy as the static protocols.
    if (ladder.note_failure()) engine.abandon_active(active);
  }
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
