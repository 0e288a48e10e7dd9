#include "src/core/control.h"

#include <algorithm>

namespace ajoin {

LoadTracker::LoadTracker(const std::vector<int>& joiner_tasks)
    : joiner_tasks_(joiner_tasks.begin(), joiner_tasks.end()) {}

LoadSample LoadTracker::Observe(const TelemetrySample& sample) {
  LoadSample s;
  s.t_us = sample.t_us;
  s.backlog = sample.backlog;
  uint64_t in_tuples = 0;
  for (const TaskSnapshot& task : sample.tasks) {
    if (task.kind != TaskKind::kJoiner ||
        joiner_tasks_.count(task.task) == 0) {
      continue;
    }
    const JoinerSnapshot& j = task.joiner;
    in_tuples += j.in_tuples;
    if (j.migrating) s.migrating = true;
    if (j.active) {
      ++s.live_joiners;
      s.per_joiner_stored = std::max(s.per_joiner_stored, j.stored_tuples);
    }
  }
  const uint64_t stall_ns = sample.exchange.credit_wait_ns;
  if (have_last_ && s.t_us > last_t_us_) {
    const double dt_us = static_cast<double>(s.t_us - last_t_us_);
    s.input_rate =
        static_cast<double>(in_tuples - last_in_tuples_) / (dt_us / 1e6);
    s.stall_ratio = static_cast<double>(stall_ns - last_stall_ns_) /
                    (dt_us * 1e3);
  }
  last_t_us_ = s.t_us;
  last_in_tuples_ = in_tuples;
  last_stall_ns_ = stall_ns;
  have_last_ = true;
  return s;
}

}  // namespace ajoin
