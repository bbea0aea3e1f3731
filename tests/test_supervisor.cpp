// ReaderSupervisor state machine: deadline-driven degradation and
// escalation, crash handling, bounded exponential-backoff restarts,
// permanent-down after the restart budget, and the ordered transition log.
// The supervisor is pure tick-driven state — no clock, no RNG — so every
// scenario here is replayed exactly. Also the recovery coordinator's
// per-tag retry ledger at fleet scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "fault/recovery.hpp"
#include "fault/supervisor.hpp"

namespace rfid {
namespace {

using fault::ReaderSupervisor;
using fault::SupervisorConfig;
using obs::ReaderHealth;

SupervisorConfig tight_config() {
  SupervisorConfig config;
  config.degraded_after_ticks = 2;
  config.down_after_ticks = 4;
  config.backoff_initial_ticks = 1;
  config.backoff_multiplier = 2;
  config.backoff_max_ticks = 8;
  config.max_restarts = 3;
  return config;
}

TEST(Supervisor, ZeroReadersIsRefused) {
  EXPECT_THROW(ReaderSupervisor(0, SupervisorConfig{}), std::invalid_argument);
}

TEST(Supervisor, ProgressKeepsAReaderHealthy) {
  ReaderSupervisor supervisor(2, tight_config());
  for (std::uint64_t tick = 0; tick < 20; ++tick) {
    supervisor.note_round_complete(0, tick);
    supervisor.note_round_complete(1, tick);
    supervisor.advance(tick);
  }
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kHealthy);
  EXPECT_EQ(supervisor.health(1), ReaderHealth::kHealthy);
  EXPECT_TRUE(supervisor.transitions().empty());
}

TEST(Supervisor, SilenceDegradesThenEscalatesToDown) {
  ReaderSupervisor supervisor(1, tight_config());
  supervisor.note_round_complete(0, 0);

  // Silent from tick 1 on: degraded at silence >= 2, down at >= 4.
  supervisor.advance(1);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kHealthy);
  supervisor.advance(2);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kDegraded);
  supervisor.advance(3);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kDegraded);
  supervisor.advance(4);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kDown);
  EXPECT_TRUE(supervisor.restart_due(0, 4 + 1));  // initial backoff = 1

  ASSERT_EQ(supervisor.transitions().size(), 2u);
  EXPECT_EQ(supervisor.transitions()[0].to, ReaderHealth::kDegraded);
  EXPECT_EQ(supervisor.transitions()[0].tick, 2u);
  EXPECT_EQ(supervisor.transitions()[1].to, ReaderHealth::kDown);
  EXPECT_EQ(supervisor.transitions()[1].tick, 4u);
}

TEST(Supervisor, ARoundHealsADegradedReader) {
  ReaderSupervisor supervisor(1, tight_config());
  supervisor.note_round_complete(0, 0);
  supervisor.advance(2);
  ASSERT_EQ(supervisor.health(0), ReaderHealth::kDegraded);

  supervisor.note_round_complete(0, 3);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kHealthy);
  supervisor.advance(3);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kHealthy);
}

TEST(Supervisor, CrashRestartRecoveryCycle) {
  ReaderSupervisor supervisor(1, tight_config());
  supervisor.note_round_complete(0, 0);
  supervisor.note_crash(0, 1);

  EXPECT_EQ(supervisor.health(0), ReaderHealth::kDown);
  EXPECT_EQ(supervisor.crashes(0), 1u);
  EXPECT_FALSE(supervisor.restart_due(0, 1));  // backoff not elapsed
  EXPECT_TRUE(supervisor.restart_due(0, 2));   // 1 + initial backoff 1

  supervisor.begin_restart(0, 2);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kRecovering);
  EXPECT_EQ(supervisor.restarts(0), 1u);
  EXPECT_FALSE(supervisor.restart_due(0, 100));  // no restart pending

  // A completed round confirms the recovery and resets the backoff.
  supervisor.note_round_complete(0, 3);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kHealthy);

  // Next crash: backoff is the initial value again, not the doubled one.
  supervisor.note_crash(0, 10);
  EXPECT_TRUE(supervisor.restart_due(0, 11));
}

TEST(Supervisor, BackoffDoublesWhileRecoveryKeepsFailing) {
  ReaderSupervisor supervisor(1, tight_config());
  supervisor.note_round_complete(0, 0);

  // Crash at 1; restart due at 2 (backoff 1 -> next 2).
  supervisor.note_crash(0, 1);
  ASSERT_TRUE(supervisor.restart_due(0, 2));
  supervisor.begin_restart(0, 2);

  // The recovering reader stays silent; the deadline sweep re-downs it and
  // schedules the next restart a doubled backoff later.
  std::uint64_t tick = 2;
  while (supervisor.health(0) == ReaderHealth::kRecovering) {
    ++tick;
    supervisor.advance(tick);
  }
  ASSERT_EQ(supervisor.health(0), ReaderHealth::kDown);
  const std::uint64_t down_tick = tick;
  EXPECT_FALSE(supervisor.restart_due(0, down_tick + 1));  // backoff now 2
  EXPECT_TRUE(supervisor.restart_due(0, down_tick + 2));
}

TEST(Supervisor, RestartBudgetExhaustionIsPermanent) {
  ReaderSupervisor supervisor(1, tight_config());  // max_restarts = 3
  std::uint64_t tick = 0;
  supervisor.note_round_complete(0, tick);

  for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
    supervisor.note_crash(0, ++tick);
    ASSERT_EQ(supervisor.health(0), ReaderHealth::kDown);
    ASSERT_FALSE(supervisor.permanently_down(0));
    while (!supervisor.restart_due(0, tick)) ++tick;
    supervisor.begin_restart(0, tick);
  }

  // Budget spent: the next failure is final — no restart is ever due again.
  supervisor.note_crash(0, ++tick);
  EXPECT_TRUE(supervisor.permanently_down(0));
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kDown);
  EXPECT_FALSE(supervisor.restart_due(0, tick + 1000000));
}

TEST(Supervisor, SpontaneousRestartCountsAgainstTheBudget) {
  SupervisorConfig config = tight_config();
  config.max_restarts = 1;
  ReaderSupervisor supervisor(1, config);
  supervisor.note_round_complete(0, 0);

  supervisor.note_spontaneous_restart(0, 1);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kRecovering);
  EXPECT_EQ(supervisor.restarts(0), 1u);

  // Budget (1) is spent: the next crash is permanent.
  supervisor.note_round_complete(0, 2);
  supervisor.note_crash(0, 3);
  EXPECT_TRUE(supervisor.permanently_down(0));
}

TEST(Supervisor, StallsAreCountedAndLeadToDeadlineEscalation) {
  ReaderSupervisor supervisor(1, tight_config());
  supervisor.note_round_complete(0, 0);
  supervisor.note_stall(0);
  supervisor.note_stall(0);
  EXPECT_EQ(supervisor.stalls(0), 2u);
  // A stall is not a transition by itself...
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kHealthy);
  // ...the silence it causes is what the deadline sweep escalates.
  supervisor.advance(4);
  EXPECT_EQ(supervisor.health(0), ReaderHealth::kDown);
}

TEST(Supervisor, TransitionLogIsOrderedAndDrainable) {
  ReaderSupervisor supervisor(2, tight_config());
  supervisor.note_round_complete(0, 0);
  supervisor.note_round_complete(1, 0);
  supervisor.note_crash(1, 1);
  supervisor.advance(2);  // reader 0 degrades (silent since 0)

  const auto& transitions = supervisor.transitions();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].reader, 1u);
  EXPECT_EQ(transitions[0].to, ReaderHealth::kDown);
  EXPECT_EQ(transitions[1].reader, 0u);
  EXPECT_EQ(transitions[1].to, ReaderHealth::kDegraded);

  supervisor.clear_transitions();
  EXPECT_TRUE(supervisor.transitions().empty());
  // State survives the drain; only the log is cleared.
  EXPECT_EQ(supervisor.health(1), ReaderHealth::kDown);
}

TEST(RetryLedger, CountsEveryTagIndependentlyAcrossGrowth) {
  // Thousands of first-failing tags force the flat ledger through several
  // rehashes; every tag keeps its own count and budget.
  fault::RecoveryConfig config;
  config.enabled = true;
  config.retry_budget = 3;
  fault::RecoveryCoordinator coordinator(config);
  const auto id_of = [](std::uint32_t i) {
    TagId id;
    id.words = {i * 2654435761u, i, ~i};
    return id;
  };
  constexpr std::uint32_t kTags = 5000;
  // Tag i asks i % 6 times; the fourth and later asks are refused.
  for (std::uint32_t pass = 0; pass < 6; ++pass)
    for (std::uint32_t i = 0; i < kTags; ++i) {
      if (pass < i % 6) {
        EXPECT_EQ(coordinator.take_attempt(id_of(i)), pass < 3);
      }
    }
  for (std::uint32_t i = 0; i < kTags; ++i) {
    EXPECT_EQ(coordinator.attempts(id_of(i)), std::min(i % 6, 3u));
    EXPECT_EQ(coordinator.exhausted(id_of(i)), i % 6 >= 3);
  }
  EXPECT_EQ(coordinator.attempts(id_of(kTags)), 0u);
}

TEST(RetryLedger, ZeroBudgetRecordsNothing) {
  fault::RecoveryConfig config;
  config.enabled = true;
  config.retry_budget = 0;
  fault::RecoveryCoordinator coordinator(config);
  const TagId id{{1, 2, 3}};
  EXPECT_FALSE(coordinator.take_attempt(id));
  EXPECT_FALSE(coordinator.take_attempt(id));
  EXPECT_EQ(coordinator.attempts(id), 0u);
  EXPECT_TRUE(coordinator.exhausted(id));
}

}  // namespace
}  // namespace rfid
