// Elastic autoscaling: closes the loop the paper leaves to the "cloud
// provider" side of section 4.3 — watch the live operator through the
// telemetry plane and add or retire joiner machines at runtime, using the
// migration protocol (Alg. 3) as the mechanism so the stream never pauses.
//
// Split into two pieces so the decision logic is testable without an
// engine:
//
//  * AutoscalePolicy — a pure, deterministic state machine: feed it one
//    AutoscaleSample per tick, get back kHold/kGrow/kShrink. Its triggers
//    run through the shared Hysteresis primitive (src/core/control.h):
//    consecutive-tick streaks, cooldown after an action, and a hard hold
//    while a migration is in flight.
//  * AutoscaleController — an observer of the TelemetrySampler loop: each
//    sample becomes an AutoscaleSample (LoadTracker, filtered to one
//    operator's joiner tasks), the policy runs, and every decision becomes
//    an Operator::GrowJoiners / ShrinkJoiners call. It keeps a decision log
//    for tests and telemetry.

#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/core/control.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

class Operator;  // src/core/operator.h

/// Policy knobs. Rates are per-second; ratios are fractions of wall time.
struct AutoscaleConfig {
  /// Live-joiner bounds the policy respects (grow keeps live*4 <= max_live,
  /// shrink keeps live/4 >= min_live). Align max_live with the operator's
  /// allocated slots (initial J << 2*max_expansions).
  uint32_t min_live = 4;
  uint32_t max_live = 64;
  /// Grow when the exchange plane spent at least this fraction of wall time
  /// stalled for credits (downstream cannot keep up). 0 disables the
  /// stall trigger.
  double grow_stall_ratio = 0.10;
  /// Grow when input tuples/sec exceeds this per live joiner. 0 disables
  /// the rate trigger.
  double grow_rate_per_joiner = 0;
  /// Shrink when input tuples/sec falls below this per live joiner (and
  /// nothing is stalled). 0 disables shrinking.
  double shrink_rate_per_joiner = 0;
  /// Hysteresis: consecutive qualifying ticks before acting.
  uint32_t surge_ticks = 2;
  uint32_t idle_ticks = 5;
  /// Ticks to hold after an action (lets the migration land and the
  /// post-scale rates stabilize before re-evaluating).
  uint32_t cooldown_ticks = 5;
};

/// One observation of the operator, as the policy sees it (the policy reads
/// live_joiners, migrating, stall_ratio and input_rate).
using AutoscaleSample = LoadSample;

/// Deterministic scaling decision engine (no engine, no clock, no threads —
/// drive it with synthetic samples in unit tests).
class AutoscalePolicy {
 public:
  enum class Decision { kHold, kGrow, kShrink };

  /// Policy with the given knobs (see AutoscaleConfig defaults).
  explicit AutoscalePolicy(AutoscaleConfig config)
      : config_(config),
        hysteresis_(config.surge_ticks, config.idle_ticks,
                    config.cooldown_ticks) {}

  /// Consumes one tick and returns the decision. A surge tick (stall or
  /// rate trigger) is a Hysteresis enter tick and grows after surge_ticks,
  /// bounds permitting; an idle tick is an exit tick and shrinks after
  /// idle_ticks; anything else is neutral. A migrating tick is a Hysteresis
  /// hold. Every action arms the cooldown.
  Decision OnSample(const AutoscaleSample& s) {
    const bool stalled = config_.grow_stall_ratio > 0 &&
                         s.stall_ratio >= config_.grow_stall_ratio;
    const bool rate_surge =
        config_.grow_rate_per_joiner > 0 &&
        s.input_rate > config_.grow_rate_per_joiner * s.live_joiners;
    const bool idle =
        !stalled && config_.shrink_rate_per_joiner > 0 &&
        s.input_rate < config_.shrink_rate_per_joiner * s.live_joiners;
    using Signal = Hysteresis::Signal;
    const Signal signal = stalled || rate_surge ? Signal::kEnter
                          : idle                ? Signal::kExit
                                                : Signal::kNeutral;
    const bool allowed = signal == Signal::kEnter
                             ? s.live_joiners * 4 <= config_.max_live
                             : s.live_joiners / 4 >= config_.min_live &&
                                   s.live_joiners % 4 == 0;
    if (!hysteresis_.Step(signal, allowed, s.migrating)) {
      return Decision::kHold;
    }
    return signal == Signal::kEnter ? Decision::kGrow : Decision::kShrink;
  }

  /// Remaining cooldown ticks (testing).
  uint32_t cooldown() const { return hysteresis_.cooldown(); }

 private:
  AutoscaleConfig config_;
  Hysteresis hysteresis_;
};

/// Per-operator scaling controller: an observer of the TelemetrySampler
/// loop that runs AutoscalePolicy on every sample and drives
/// Operator::GrowJoiners/ShrinkJoiners.
class AutoscaleController : public SampleObserver {
 public:
  /// One policy action (or observed decision) for the log.
  struct Action {
    uint64_t t_us = 0;
    AutoscalePolicy::Decision decision = AutoscalePolicy::Decision::kHold;
    AutoscaleSample sample;  // what the policy saw
    bool accepted = false;   // operator took the request
  };

  /// Scales `op` (not owned; must outlive the controller) on the load of
  /// its joiner cells `joiner_tasks` (the operator's joiner_task_ids()).
  /// Attach it to the sampler whose registry those cells publish into.
  AutoscaleController(Operator& op, const std::vector<int>& joiner_tasks,
                      AutoscaleConfig config);

  AutoscaleController(const AutoscaleController&) = delete;
  AutoscaleController& operator=(const AutoscaleController&) = delete;

  /// Runs the policy on one sample and applies the decision. The sampler
  /// calls it per tick; scale requests already posted keep draining when
  /// the loop stops.
  void OnSample(const TelemetrySample& sample) override;

  /// Every non-hold decision taken so far, in order.
  std::vector<Action> log() const;
  /// Count of accepted grow actions.
  uint64_t grows() const;
  /// Count of accepted shrink actions.
  uint64_t shrinks() const;

 private:
  Operator& op_;
  LoadTracker load_;
  AutoscalePolicy policy_;

  mutable std::mutex mu_;  // guards log_ / counters
  std::vector<Action> log_;
  uint64_t grows_ = 0;
  uint64_t shrinks_ = 0;
};

}  // namespace ajoin
