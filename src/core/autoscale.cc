#include "src/core/autoscale.h"

#include "src/common/status.h"
#include "src/core/operator.h"

namespace ajoin {

AutoscaleController::AutoscaleController(Operator& op,
                                         const std::vector<int>& joiner_tasks,
                                         AutoscaleConfig config)
    : op_(op), load_(joiner_tasks), policy_(config) {
  AJOIN_CHECK_MSG(!joiner_tasks.empty(),
                  "autoscale: no joiner tasks to watch");
}

void AutoscaleController::OnSample(const TelemetrySample& telemetry) {
  const AutoscaleSample sample = load_.Observe(telemetry);
  const AutoscalePolicy::Decision decision = policy_.OnSample(sample);
  if (decision == AutoscalePolicy::Decision::kHold) return;
  const bool grow = decision == AutoscalePolicy::Decision::kGrow;
  const bool accepted = grow ? op_.GrowJoiners(1) : op_.ShrinkJoiners(1);
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(Action{sample.t_us, decision, sample, accepted});
  if (accepted) ++(grow ? grows_ : shrinks_);
}

std::vector<AutoscaleController::Action> AutoscaleController::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

uint64_t AutoscaleController::grows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grows_;
}

uint64_t AutoscaleController::shrinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shrinks_;
}

}  // namespace ajoin
