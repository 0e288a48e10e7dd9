#include "src/core/shed.h"

#include "src/common/status.h"
#include "src/core/operator.h"

namespace ajoin {

ShedController::ShedController(Operator& op,
                               const std::vector<int>& joiner_tasks,
                               ShedConfig config)
    : op_(op), load_(joiner_tasks), policy_(config) {
  AJOIN_CHECK_MSG(!joiner_tasks.empty(), "shed: no joiner tasks to watch");
}

void ShedController::OnSample(const TelemetrySample& telemetry) {
  const ShedSample sample = load_.Observe(telemetry);
  const uint32_t prev = policy_.rate_ppm();
  const uint32_t rate = policy_.OnSample(sample);
  if (rate == prev) return;
  const bool accepted = op_.SetShedRate(rate);
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(Action{sample.t_us, prev, rate, sample, accepted});
  if (accepted) {
    ++rate_changes_;
    published_rate_ppm_ = rate;
  }
}

uint32_t ShedController::rate_ppm() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_rate_ppm_;
}

std::vector<ShedController::Action> ShedController::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

uint64_t ShedController::rate_changes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rate_changes_;
}

}  // namespace ajoin
