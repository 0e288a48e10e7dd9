// The shared control plane: one TelemetrySampler loop ticking every attached
// controller, and the Hysteresis primitive both policies debounce through.
// Deterministic — the sampler is ticked by hand with SampleNow over a
// synthetic registry and a fake operator; no engine, no thread.

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "src/core/autoscale.h"
#include "src/core/control.h"
#include "src/core/operator.h"
#include "src/core/shed.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {
namespace {

/// Operator stub recording shed-rate and scale requests.
class FakeControlledOp : public Operator {
 public:
  void Push(const StreamTuple&) override {}
  void SetIngressBatch(uint32_t) override {}
  void FlushInput() override {}
  void Checkpoint() override {}
  void SendEos() override {}
  void RouteResultsTo(const std::vector<int>&) override {}
  bool GrowJoiners(uint32_t steps) override {
    grow_calls += steps;
    return true;
  }
  bool SetShedRate(uint32_t rate_ppm) override {
    rates.push_back(rate_ppm);
    return true;
  }
  const JoinerCore& joiner(size_t) const override { std::abort(); }
  size_t num_joiner_slots() const override { return 0; }
  uint64_t pushed_total() const override { return 0; }
  const ControllerCore* controller() const override { return nullptr; }
  uint64_t TotalOutputs() const override { return 0; }
  std::vector<std::pair<uint64_t, uint64_t>> CollectPairs() const override {
    return {};
  }
  uint64_t MaxInBytes() const override { return 0; }
  uint64_t TotalStoredBytes() const override { return 0; }

  std::vector<uint32_t> rates;
  uint32_t grow_calls = 0;
};

TEST(ControlLoop, ShedAndAutoscaleShareOneSamplerLoop) {
  MetricsRegistry registry;
  const std::vector<int> ids = {10, 11, 12, 13};
  std::vector<TaskTelemetry*> cells;
  for (int id : ids) cells.push_back(registry.Register(id, TaskKind::kJoiner));
  JoinerMetrics m;
  for (TaskTelemetry* cell : cells) cell->PublishJoiner(m, 0, false, true);

  FakeControlledOp op;
  ShedConfig sc;
  sc.enter_stall_ratio = 0;
  sc.enter_backlog = 100;
  sc.overload_ticks = 1;
  sc.cooldown_ticks = 0;
  ShedController shed(op, ids, sc);
  AutoscaleConfig ac;
  ac.grow_stall_ratio = 0;
  ac.grow_rate_per_joiner = 10;  // 4 live joiners -> grow above 40/s
  ac.surge_ticks = 1;
  ac.cooldown_ticks = 0;
  AutoscaleController scale(op, ids, ac);

  // One loop: Start() is never called, so SampleNow is the only tick.
  TelemetrySampler sampler(&registry);
  uint64_t backlog = 0;
  sampler.SetBacklogSource([&backlog] { return backlog; });
  sampler.Attach(&shed);
  sampler.Attach(&scale);

  sampler.SampleNow(0);  // delta baseline for both controllers
  m.in_tuples = 1000;
  cells[0]->PublishJoiner(m, 0, false, true);
  backlog = 500;
  sampler.SampleNow(1000000);

  // Both controllers acted on the one sample the series recorded.
  const std::vector<TelemetrySample> series = sampler.series();
  ASSERT_EQ(series.size(), 2u);
  ASSERT_EQ(shed.log().size(), 1u);
  ASSERT_EQ(scale.log().size(), 1u);
  EXPECT_EQ(shed.log()[0].t_us, series[1].t_us);
  EXPECT_EQ(scale.log()[0].t_us, series[1].t_us);
  EXPECT_EQ(shed.log()[0].sample.backlog, series[1].backlog);
  EXPECT_EQ(scale.log()[0].sample.live_joiners, 4u);
  EXPECT_NEAR(scale.log()[0].sample.input_rate, 1000.0, 1e-6);
  EXPECT_EQ(op.rates,
            std::vector<uint32_t>{static_cast<uint32_t>(kShedExactPpm / 2)});
  EXPECT_EQ(op.grow_calls, 1u);

  // Only the two hand ticks sampled: Start() never ran a second loop.
  EXPECT_EQ(sampler.samples_taken(), 2u);
}

TEST(Hysteresis, HoldResetsStreaksWithoutConsumingCooldown) {
  using Signal = Hysteresis::Signal;
  Hysteresis h(/*enter_ticks=*/2, /*exit_ticks=*/1, /*cooldown_ticks=*/1);
  EXPECT_FALSE(h.Step(Signal::kEnter));
  EXPECT_FALSE(h.Step(Signal::kEnter, true, /*hold=*/true));  // streak reset
  EXPECT_FALSE(h.Step(Signal::kEnter));
  EXPECT_TRUE(h.Step(Signal::kEnter));
  EXPECT_EQ(h.cooldown(), 1u);
  EXPECT_FALSE(h.Step(Signal::kExit, true, /*hold=*/true));
  EXPECT_EQ(h.cooldown(), 1u);  // a held tick leaves the cooldown armed
  EXPECT_FALSE(h.Step(Signal::kExit));  // consumes the cooldown
  EXPECT_FALSE(h.Step(Signal::kExit, /*allowed=*/false));  // bound blocks
  EXPECT_TRUE(h.Step(Signal::kExit));
}

}  // namespace
}  // namespace ajoin
