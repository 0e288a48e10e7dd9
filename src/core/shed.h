// Overload survival: adaptive load shedding with unbiased sampled output.
// When the input rate outruns what the operator can absorb — and scaling out
// is capped or too slow — the only remaining lever is to do less work per
// tuple. Shedding gates *probes* (never stores or migrations) with a
// Bernoulli admission rate p, and every result emitted under that rate
// carries Horvitz-Thompson weight 1/p, so weighted aggregates over the
// sampled output remain unbiased estimators of the exact join.
//
// Split like the autoscaler (src/core/autoscale.h) so the decision logic is
// testable without an engine:
//
//  * ShedPolicy — a pure, deterministic state machine: feed it one
//    ShedSample per tick, get back the admission rate (ppm) the operator
//    should run at. Its triggers run through the shared Hysteresis
//    primitive (src/core/control.h); multiplicative backoff/recovery and
//    the rate floor live here.
//  * ShedController — an observer of the TelemetrySampler loop: each
//    sample becomes a ShedSample (LoadTracker), the policy runs, and every
//    rate change becomes an Operator::SetShedRate call. It keeps a decision
//    log for tests and telemetry.

#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/core/control.h"
#include "src/net/message.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

class Operator;  // src/core/operator.h

/// Policy knobs. Ratios are fractions of wall time; rates are ppm.
struct ShedConfig {
  /// Begin (or deepen) shedding when the exchange plane spent at least this
  /// fraction of the tick credit-stalled. 0 disables the stall trigger.
  double enter_stall_ratio = 0.20;
  /// Recovery requires the stall ratio at or below this.
  double exit_stall_ratio = 0.05;
  /// Begin (or deepen) shedding when the ingress backlog gauge reaches this
  /// many envelopes. 0 disables the backlog trigger.
  uint64_t enter_backlog = 0;
  /// Recovery requires the backlog at or below this.
  uint64_t exit_backlog = 0;
  /// Hysteresis: consecutive qualifying ticks before acting.
  uint32_t overload_ticks = 2;
  uint32_t recover_ticks = 4;
  /// Ticks to hold after a rate change (lets the new rate propagate through
  /// the reshufflers and the signals stabilize before re-evaluating).
  uint32_t cooldown_ticks = 2;
  /// Admission-rate floor: each shed step divides the rate by shed_factor,
  /// never below this (the Horvitz-Thompson weight stays bounded).
  uint32_t min_rate_ppm = 62500;  // 1/16
  /// Multiplicative step for backoff (rate /= factor) and recovery
  /// (rate *= factor). Must be >= 2.
  uint32_t shed_factor = 2;
};

/// One observation of the operator, as the policy sees it (the policy reads
/// stall_ratio and backlog).
using ShedSample = LoadSample;

/// Deterministic admission-rate state machine (no engine, no clock, no
/// threads — drive it with synthetic samples in unit tests).
class ShedPolicy {
 public:
  explicit ShedPolicy(ShedConfig config)
      : config_(config),
        hysteresis_(config.overload_ticks, config.recover_ticks,
                    config.cooldown_ticks) {
    if (config_.shed_factor < 2) config_.shed_factor = 2;
    if (config_.min_rate_ppm == 0) config_.min_rate_ppm = 1;
  }

  /// Consumes one tick and returns the admission rate (ppm) the operator
  /// should run at after it — kShedExactPpm when exact. An overloaded tick
  /// (stall or backlog trigger) is a Hysteresis enter tick: after
  /// overload_ticks of them the rate is divided by shed_factor (down to
  /// min_rate_ppm). A recovered tick (below both exit thresholds while
  /// shedding) is an exit tick: after recover_ticks the rate is multiplied
  /// back. Anything else is neutral. Every rate change arms the cooldown.
  uint32_t OnSample(const ShedSample& s) {
    const bool stalled = config_.enter_stall_ratio > 0 &&
                         s.stall_ratio >= config_.enter_stall_ratio;
    const bool backlogged =
        config_.enter_backlog > 0 && s.backlog >= config_.enter_backlog;
    const bool calm =
        s.stall_ratio <= config_.exit_stall_ratio &&
        (config_.enter_backlog == 0 || s.backlog <= config_.exit_backlog);
    using Signal = Hysteresis::Signal;
    const Signal signal = stalled || backlogged ? Signal::kEnter
                          : calm && shedding()  ? Signal::kExit
                                                : Signal::kNeutral;
    const bool allowed =
        signal != Signal::kEnter || rate_ppm_ > config_.min_rate_ppm;
    if (!hysteresis_.Step(signal, allowed)) return rate_ppm_;
    if (signal == Signal::kEnter) {
      rate_ppm_ = std::max(rate_ppm_ / config_.shed_factor,
                           config_.min_rate_ppm);
    } else {
      rate_ppm_ = static_cast<uint32_t>(std::min<uint64_t>(
          static_cast<uint64_t>(rate_ppm_) * config_.shed_factor,
          static_cast<uint64_t>(kShedExactPpm)));
    }
    return rate_ppm_;
  }

  /// Current admission rate in ppm (kShedExactPpm = exact).
  uint32_t rate_ppm() const { return rate_ppm_; }
  /// True while the policy holds a sampled (non-exact) rate.
  bool shedding() const {
    return rate_ppm_ < static_cast<uint32_t>(kShedExactPpm);
  }
  /// Remaining cooldown ticks (testing).
  uint32_t cooldown() const { return hysteresis_.cooldown(); }

 private:
  ShedConfig config_;
  Hysteresis hysteresis_;
  uint32_t rate_ppm_ = static_cast<uint32_t>(kShedExactPpm);
};

/// Per-operator shed controller: an observer of the TelemetrySampler loop
/// that runs ShedPolicy on every sample and drives Operator::SetShedRate on
/// every rate change.
class ShedController : public SampleObserver {
 public:
  /// One applied rate change for the log.
  struct Action {
    uint64_t t_us = 0;
    uint32_t prev_rate_ppm = 0;
    uint32_t rate_ppm = 0;
    ShedSample sample;      // what the policy saw
    bool accepted = false;  // operator took the request
  };

  /// Sheds `op` (not owned; must outlive the controller) on the load of
  /// its joiner cells `joiner_tasks` (the operator's joiner_task_ids()).
  /// Attach it to the sampler whose registry those cells publish into.
  ShedController(Operator& op, const std::vector<int>& joiner_tasks,
                 ShedConfig config);

  ShedController(const ShedController&) = delete;
  ShedController& operator=(const ShedController&) = delete;

  /// Runs the policy on one sample and applies any rate change. The
  /// sampler calls it per tick; the last posted rate stays in effect when
  /// the loop stops (post SetShedRate(kShedExactPpm) to restore exactness).
  void OnSample(const TelemetrySample& sample) override;

  /// The rate the operator last accepted (ppm).
  uint32_t rate_ppm() const;
  /// Every applied rate change so far, in order.
  std::vector<Action> log() const;
  /// Count of accepted rate changes.
  uint64_t rate_changes() const;

 private:
  Operator& op_;
  LoadTracker load_;
  ShedPolicy policy_;

  mutable std::mutex mu_;  // guards log_ / counters / published rate
  std::vector<Action> log_;
  uint64_t rate_changes_ = 0;
  uint32_t published_rate_ppm_ = static_cast<uint32_t>(kShedExactPpm);
};

}  // namespace ajoin
