// Shared pieces of the per-operator control loops (shedding,
// src/core/shed.h; elastic scaling, src/core/autoscale.h). Both run as
// observers of the one TelemetrySampler loop (src/runtime/metrics_registry.h)
// and differ only in their triggers and their actions, so what they have in
// common lives here:
//
//  * LoadSample / LoadTracker — the operator's load as a policy sees it,
//    derived once per tick from consecutive telemetry samples: joiner input
//    rate, exchange stall ratio, live-joiner count, migrating flag, the
//    ingress backlog gauge and the largest live joiner's store.
//  * Hysteresis — the streak / cooldown / hold-while-migrating debouncer
//    both policies run their triggers through.

#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/runtime/metrics_registry.h"

namespace ajoin {

/// One observation of an operator's load, as a control policy sees it.
struct LoadSample {
  uint64_t t_us = 0;
  /// Fraction of the tick the exchange plane spent credit-stalled
  /// (plane-wide stall time over wall time; can exceed 1 when several
  /// producers stall at once).
  double stall_ratio = 0;
  /// Instantaneous ingress backlog gauge (envelopes posted, not consumed).
  uint64_t backlog = 0;
  /// Input tuples/sec over the tick (joiner in_tuples delta).
  double input_rate = 0;
  /// Joiners currently inside the live grid (telemetry `active` flag).
  uint32_t live_joiners = 0;
  /// Any joiner mid-migration.
  bool migrating = false;
  /// Max stored tuples on any live joiner (memory-pressure signal for
  /// logging; the built-in triggers use stall/rate/backlog).
  uint64_t per_joiner_stored = 0;
};

/// Derives one operator's LoadSample from consecutive TelemetrySamples:
/// the joiner cells it watches are filtered out of each sample, and rate
/// and stall ratio are deltas against the previously observed sample
/// (both zero on the first observation).
class LoadTracker {
 public:
  /// Watches the joiner cells whose task ids are in `joiner_tasks` (the
  /// operator's joiner_task_ids()).
  explicit LoadTracker(const std::vector<int>& joiner_tasks);

  /// Consumes the next sample of the series and returns the load over the
  /// interval since the previous one.
  LoadSample Observe(const TelemetrySample& sample);

 private:
  std::unordered_set<int> joiner_tasks_;
  uint64_t last_t_us_ = 0;
  uint64_t last_in_tuples_ = 0;
  uint64_t last_stall_ns_ = 0;
  bool have_last_ = false;
};

/// Two-sided trigger debouncer (no clock, no threads). An action toward
/// kEnter (shed deeper, grow) fires after `enter_ticks` consecutive enter
/// ticks, one toward kExit (recover, shrink) after `exit_ticks` consecutive
/// exit ticks; every firing arms a `cooldown_ticks` hold, and a held tick
/// (a migration in flight) resets both streaks without consuming cooldown.
class Hysteresis {
 public:
  /// Which way one tick's raw trigger points.
  enum class Signal { kNeutral, kEnter, kExit };

  /// Debouncer with the given streak lengths and post-action cooldown.
  Hysteresis(uint32_t enter_ticks, uint32_t exit_ticks,
             uint32_t cooldown_ticks)
      : enter_ticks_(enter_ticks),
        exit_ticks_(exit_ticks),
        cooldown_ticks_(cooldown_ticks) {}

  /// Consumes one tick and returns whether to act on `signal` now. In
  /// order: a `hold` tick resets both streaks; a cooldown tick decrements
  /// the cooldown and resets both streaks; an enter or exit tick extends
  /// its streak (resetting the other) and fires once the streak reaches its
  /// length while `allowed` (the action's bound, e.g. not already at the
  /// rate floor) — firing resets the streak and arms the cooldown; a
  /// neutral tick resets both streaks.
  bool Step(Signal signal, bool allowed = true, bool hold = false) {
    if (hold || cooldown_ > 0 || signal == Signal::kNeutral) {
      if (!hold && cooldown_ > 0) --cooldown_;
      enter_streak_ = exit_streak_ = 0;
      return false;
    }
    const bool enter = signal == Signal::kEnter;
    uint32_t& streak = enter ? enter_streak_ : exit_streak_;
    (enter ? exit_streak_ : enter_streak_) = 0;
    if (++streak < (enter ? enter_ticks_ : exit_ticks_) || !allowed) {
      return false;
    }
    streak = 0;
    cooldown_ = cooldown_ticks_;
    return true;
  }

  /// Remaining cooldown ticks.
  uint32_t cooldown() const { return cooldown_; }

 private:
  uint32_t enter_ticks_;
  uint32_t exit_ticks_;
  uint32_t cooldown_ticks_;
  uint32_t enter_streak_ = 0;
  uint32_t exit_streak_ = 0;
  uint32_t cooldown_ = 0;
};

}  // namespace ajoin
