// Reader-side recovery coordination: retry budgets, recovery scopes, the
// end-of-round mop-up loop, and the bounded init-failure ladder.
//
// Everything stateful about "how often may the reader keep trying" lives
// here, in one coordinator, so the hash-polling family shares a single
// implementation instead of each protocol re-growing its own copy:
//   - the per-tag retry budget (formerly RecoveryTracker),
//   - the recovery scope that redirects phase accounting to
//     obs::Phase::kRecovery (formerly sim::Session::RecoveryScope),
//   - the multi-pass mop-up sweep (formerly protocols::run_recovery_mop_up),
//   - the init-failure ladder that bounds consecutive undeliverable round
//     commands before abandoning loudly (formerly copy-pasted across
//     HPP/EHPP/TPP/ADAPT).
// The coordinator stays protocol- and session-agnostic: airtime and result
// reporting go through the narrow RecoveryHost interface the session
// implements, and the mop-up is a template over "identify tag i" and
// "re-poll tag i" callables supplied by the round engine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/tag_id.hpp"
#include "fault/fault_model.hpp"

namespace rfid::fault {

/// What the coordinator needs from the session: toggling the
/// recovery-phase attribution and reporting budget-exhausted tags.
/// Implemented by sim::Session.
class RecoveryHost {
 public:
  /// Begins/ends attributing all airtime to obs::Phase::kRecovery.
  virtual void recovery_phase_begin() = 0;
  virtual void recovery_phase_end() = 0;
  /// Records that the recovery policy abandoned `id` (budget exhausted).
  virtual void mark_undelivered(const TagId& id) = 0;

 protected:
  ~RecoveryHost() = default;
};

class RecoveryCoordinator final {
 public:
  explicit RecoveryCoordinator(const RecoveryConfig& config)
      : config_(config) {}

  [[nodiscard]] bool active() const noexcept { return config_.enabled; }
  [[nodiscard]] const RecoveryConfig& config() const noexcept {
    return config_;
  }

  /// Consumes one retry attempt for `id`. Returns true while the tag's
  /// budget allows another re-poll; false once it is exhausted (the caller
  /// must then report the tag undelivered). Attempts are counted per tag
  /// over the whole run, so a tag that fails across several rounds exhausts
  /// the same budget a tag failing repeatedly within one mop-up would.
  [[nodiscard]] bool take_attempt(const TagId& id) {
    if (attempts_.find(id) >= config_.retry_budget) return false;
    attempts_.increment(id);
    return true;
  }

  /// Recovery attempts consumed by `id` so far.
  [[nodiscard]] std::uint32_t attempts(const TagId& id) const {
    return attempts_.find(id);
  }

  [[nodiscard]] bool exhausted(const TagId& id) const {
    return attempts(id) >= config_.retry_budget;
  }

  /// While a scope is open every phase increment on the host — vector,
  /// turn-around, reply, timeout — is attributed to obs::Phase::kRecovery
  /// and every poll counts as a retry; the clock itself advances exactly as
  /// it would outside the scope. Scopes must not nest: the destructor
  /// unconditionally ends the recovery phase, so a nested scope would
  /// silently stop the attribution when the inner scope closes. Nesting
  /// therefore trips an RFID_EXPECTS contract violation at construction.
  class Scope final {
   public:
    Scope(RecoveryCoordinator& coordinator, RecoveryHost& host)
        : coordinator_(coordinator), host_(host) {
      RFID_EXPECTS(coordinator_.scope_depth_ == 0);
      ++coordinator_.scope_depth_;
      host_.recovery_phase_begin();
    }
    ~Scope() {
      --coordinator_.scope_depth_;
      host_.recovery_phase_end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RecoveryCoordinator& coordinator_;
    RecoveryHost& host_;
  };

  /// End-of-round recovery mop-up, shared by the hash-polling family
  /// (HPP/EHPP rounds and TPP's tree rounds). Re-polls the device indices
  /// listed in `pending` for up to config().mop_up_passes sweeps inside a
  /// recovery Scope (airtime lands in obs::Phase::kRecovery); every re-poll
  /// first consumes one unit of the tag's retry budget, and a tag that runs
  /// out is reported via RecoveryHost::mark_undelivered and marked done.
  /// `id_of(i)` maps a device index to its TagId; `poll_one(i)` issues one
  /// re-poll and returns true when the tag was read. On return `pending`
  /// holds the tags still failed but within budget; they stay active for
  /// the next round. The pass-local scratch is a coordinator member so
  /// steady-state mop-ups allocate nothing.
  template <typename IdOf, typename PollOne>
  void mop_up(RecoveryHost& host, std::vector<char>& done,
              std::vector<std::size_t>& pending, IdOf&& id_of,
              PollOne&& poll_one) {
    if (pending.empty()) return;
    Scope scope(*this, host);
    for (std::uint32_t pass = 0;
         pass < config_.mop_up_passes && !pending.empty(); ++pass) {
      still_.clear();
      for (const std::size_t i : pending) {
        const TagId id = id_of(i);
        if (!take_attempt(id)) {
          host.mark_undelivered(id);
          done[i] = 1;
          continue;
        }
        if (poll_one(i))
          done[i] = 1;
        else
          still_.push_back(i);
      }
      pending.swap(still_);
    }
    // A tag that burned its last attempt on the final pass has no budget
    // left for future rounds: give up now rather than keep scheduling it.
    for (const std::size_t i : pending) {
      const TagId id = id_of(i);
      if (!exhausted(id)) continue;
      host.mark_undelivered(id);
      done[i] = 1;
    }
  }

  /// Bounded give-up-loudly ladder for undeliverable framed init commands
  /// (round init, circle command). One instance per round/circle loop; EHPP
  /// runs two independent ladders (circle-level and the inner HPP rounds).
  /// Usage: note_success() after a round that ran; note_failure() after one
  /// whose init broadcast exhausted its retransmission budget — it returns
  /// true once the number of consecutive failures exceeds the budget and
  /// the caller must abandon everything still unread.
  class InitLadder final {
   public:
    explicit InitLadder(std::uint32_t budget) noexcept : budget_(budget) {}

    void note_success() noexcept { failures_ = 0; }

    [[nodiscard]] bool note_failure() noexcept {
      return ++failures_ > budget_;
    }

   private:
    std::uint32_t budget_;
    std::uint32_t failures_ = 0;
  };

 private:
  /// Per-tag attempt counts: an open-addressing table with linear probing
  /// over 16-byte (ID, count) slots, power-of-two sized, load at most 0.8.
  /// A count of 0 marks a free slot; entries are never removed, so no
  /// probe chain ever breaks. Never iterated, so the hash order cannot leak
  /// into any output.
  class Ledger final {
   public:
    /// Attempts recorded for `id`; 0 when it has none.
    [[nodiscard]] std::uint32_t find(const TagId& id) const noexcept {
      if (slots_.empty()) return 0;
      for (std::size_t i = home(id);; i = next(i)) {
        const Slot& slot = slots_[i];
        if (slot.count == 0 || slot.id == id) return slot.count;
      }
    }

    void increment(const TagId& id) {
      if ((used_ + 1) * 5 > slots_.size() * 4) grow();
      for (std::size_t i = home(id);; i = next(i)) {
        Slot& slot = slots_[i];
        if (slot.count == 0) {
          slot = Slot{id, 1};
          ++used_;
          return;
        }
        if (slot.id == id) {
          ++slot.count;
          return;
        }
      }
    }

   private:
    struct Slot final {
      TagId id;
      std::uint32_t count = 0;
    };

    [[nodiscard]] std::size_t home(const TagId& id) const noexcept {
      return static_cast<std::size_t>(mix64(id.fold64())) &
             (slots_.size() - 1);
    }
    [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
      return (i + 1) & (slots_.size() - 1);
    }

    void grow() {
      std::vector<Slot> old(std::max<std::size_t>(64, slots_.size() * 2));
      old.swap(slots_);
      for (const Slot& entry : old) {
        if (entry.count == 0) continue;
        std::size_t i = home(entry.id);
        while (slots_[i].count != 0) i = next(i);
        slots_[i] = entry;
      }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;  ///< slots holding a count
  };

  RecoveryConfig config_;
  Ledger attempts_;
  std::vector<std::size_t> still_;  ///< mop-up pass scratch (reused)
  std::uint32_t scope_depth_ = 0;
};

}  // namespace rfid::fault
