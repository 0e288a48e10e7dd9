// Shared declarations of the wall-clock benchmark (see ../README.md): the
// generated workloads and their reference results, the checks that compare
// the program's output against them, the result sink the benchmark owns, and
// the timing adapter the traced run wraps around ThreadEngine.

#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/datagen/workloads.h"
#include "src/runtime/task.h"
#include "src/runtime/thread_engine.h"

namespace perfbench {

using ajoin::Envelope;
using ajoin::StreamTuple;
using ajoin::TupleBatch;

/// CLOCK_MONOTONIC in nanoseconds (the clock every benchmark time uses).
inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CPU time of the calling thread in nanoseconds.
inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------- checks --

/// Order-independent digest of a join result stream: the result count, the
/// pair checksum Σ h1(r_seq)·h2(s_seq) (mod 2^64), and the number of results
/// whose Horvitz-Thompson weight is not exactly 1.0 (shedding is off, so
/// every result must be exact).
struct PairDigest {
  uint64_t count = 0;
  uint64_t checksum = 0;
  uint64_t inexact = 0;

  static uint64_t H1(uint64_t r_seq);
  static uint64_t H2(uint64_t s_seq);
  void Add(uint64_t r_seq, uint64_t s_seq, double weight) {
    ++count;
    checksum += H1(r_seq) * H2(s_seq);
    if (weight != 1.0) ++inexact;
  }
};

/// One group's aggregates, folded by the benchmark itself (the program's
/// accumulator is not used on the reference or the checking path): COUNT and
/// SUM as the doubles the program emits, MIN, MAX and the tuple count.
struct GroupAgg {
  double count = 0;
  double sum = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  uint64_t tuples = 0;

  /// One input row of weight 1 and value `value`.
  void Add(int64_t value) {
    count += 1;
    sum += static_cast<double>(value);
    min = std::min(min, value);
    max = std::max(max, value);
    ++tuples;
  }
  /// A partial aggregate of the same group.
  void Fold(const GroupAgg& o) {
    count += o.count;
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    tuples += o.tuples;
  }
  bool operator==(const GroupAgg& o) const {
    return count == o.count && sum == o.sum && min == o.min && max == o.max &&
           tuples == o.tuples;
  }
};

/// Per-group aggregates keyed by group key.
using GroupTable = std::map<int64_t, GroupAgg>;

/// Empty when `got` matches the reference; otherwise what differs.
std::string CheckPairs(const PairDigest& want, const PairDigest& got);
std::string CheckGroups(const GroupTable& want, const GroupTable& got);
/// Empty when a == b; otherwise "<what>: a != b".
std::string CheckEqual(const char* what, uint64_t a, uint64_t b);

/// Folds aggregate result rows ([key, count, sum, min, max, tuples]; several
/// additive rows per key under periodic emission) into a GroupTable.
GroupTable FoldGroupRows(const std::vector<ajoin::Row>& rows);

// ------------------------------------------------------------- workloads --

enum class Kind { kSkewEqui, kBandFluct, kTpchCascade };

/// One generated workload instance and its reference results, computed from
/// the generated tuples alone (no program code on the reference path).
struct Workload {
  std::string name;
  Kind kind = Kind::kSkewEqui;
  /// Cascade only: stage-1 input (Region⋈Nation rows as R, suppliers as S),
  /// offered before `stream`.
  std::vector<StreamTuple> stage1;
  /// The join input (or, for the cascade, the Lineitem stream into stage 2).
  std::vector<StreamTuple> stream;
  /// Paced-phase offered rate, input tuples per second.
  double paced_rate = 0;
  int64_t band_width = 0;  // band_fluct: |r - s| <= band_width

  // Reference results.
  PairDigest ref_pairs;          // join workloads
  GroupTable ref_groups;         // cascade: per-supplier aggregates
  uint64_t ref_stage1_outputs = 0;  // cascade: (R⋈N)⋈S results
  uint64_t ref_stage2_outputs = 0;  // cascade: ⋈ Lineitem results

  size_t total() const { return stage1.size() + stream.size(); }
  bool cascade() const { return kind == Kind::kTpchCascade; }
};

/// Workload names in definition order.
const std::vector<std::string>& WorkloadNames();
/// Generates workload `name` from `seed` at `scale` (1.0 = the benchmark's
/// size; the self-test uses a small fraction). Returns false on an unknown
/// name.
bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out);

// ------------------------------------------------------------------ sink --

/// Paced-phase schedule shared by the generator and the sink. The stream is
/// offered in ticks: `per_tick` tuples every tick_ns, so tuple i is due at
/// t0_ns + (i / per_tick) * tick_ns. t0_ns stays 0 outside the paced phase.
struct Schedule {
  std::atomic<int64_t> t0_ns{0};
  int64_t tick_ns = 1;
  uint64_t per_tick = 1;
  int64_t Due(uint64_t i) const {
    return t0_ns.load(std::memory_order_acquire) +
           static_cast<int64_t>(i / per_tick) * tick_ns;
  }
};

/// The benchmark's result sink: folds every kResult into a PairDigest (join
/// workloads) or keeps the aggregate rows (cascade), and in the paced phase
/// records each result's latency from the due time of its later input.
class BenchSink : public ajoin::Task {
 public:
  /// `last_input` is the index of the input every aggregate depends on
  /// (cascade); join results use max(r_seq, s_seq). `record` keeps the raw
  /// result stream (self-test only).
  BenchSink(bool aggregate, const Schedule* schedule, uint64_t last_input,
            size_t expected_results, bool record);

  void OnMessage(Envelope msg, ajoin::Context& ctx) override;
  void OnBatch(TupleBatch batch, ajoin::Context& ctx) override;

  const PairDigest& digest() const { return digest_; }
  const std::vector<ajoin::Row>& rows() const { return rows_; }
  /// Paced phase: per-result latency in nanoseconds (saturating).
  const std::vector<uint32_t>& latencies_ns() const { return latencies_; }
  uint64_t results() const { return results_; }
  uint64_t batches() const { return batches_; }
  /// Raw (seq, tag, weight) stream, in arrival order (record mode).
  struct Recorded {
    uint64_t seq;
    uint64_t tag;
    double weight;
  };
  const std::vector<Recorded>& recorded() const { return recorded_; }

 private:
  void Take(const Envelope& msg, int64_t now_ns);

  const bool aggregate_;
  const Schedule* schedule_;
  const uint64_t last_input_;
  const bool record_;
  PairDigest digest_;
  std::vector<ajoin::Row> rows_;
  std::vector<uint32_t> latencies_;
  std::vector<Recorded> recorded_;
  uint64_t results_ = 0;
  uint64_t batches_ = 0;
};

// --------------------------------------------------------------- tracing --

/// The layer a traced task belongs to (classified from its concrete type).
enum class Layer { kReshuffler, kJoiner, kAggRouter, kAggWorker, kSink, kOther };

/// Per-task totals of the timed OnBatch/OnMessage calls.
struct TaskTrace {
  int task = -1;
  Layer layer = Layer::kOther;
  uint64_t calls = 0;
  uint64_t envelopes = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

/// A timing adapter implementing the public Engine interface around a
/// ThreadEngine: every task registered through it is wrapped so each
/// OnBatch/OnMessage call is timed in wall clock and thread CPU time and
/// added to the task's running totals, which stay in memory until the run
/// ends. task(id) hands out the wrapped task, so operator facades see their
/// own cores.
class TracingEngine : public ajoin::Engine {
 public:
  explicit TracingEngine(const ajoin::ExchangeConfig& config);
  ~TracingEngine() override;
  TracingEngine(const TracingEngine&) = delete;
  TracingEngine& operator=(const TracingEngine&) = delete;

  int AddTask(std::unique_ptr<ajoin::Task> task) override;
  void Start() override { inner_.Start(); }
  std::unique_ptr<ajoin::IngressPort> OpenIngress(int to) override {
    return inner_.OpenIngress(to);
  }
  size_t num_tasks() const override { return inner_.num_tasks(); }
  void WaitQuiescent() override { inner_.WaitQuiescent(); }
  void Shutdown() override { inner_.Shutdown(); }
  ajoin::Task* task(int id) override;
  void ActivateTask(int id) override { inner_.ActivateTask(id); }
  uint64_t NowMicros() const override { return inner_.NowMicros(); }

  ajoin::ThreadEngine& inner() { return inner_; }
  /// Per-task totals of the calls timed so far (engine quiescent).
  std::vector<TaskTrace> Summaries() const;
  /// Writes every task's totals as CSV to `path`. Returns false on I/O
  /// error.
  bool WriteSummaries(const std::string& path) const;

 private:
  class TimedTask;
  ajoin::ThreadEngine inner_;
  std::vector<TimedTask*> timed_;  // owned by inner_, indexed by task id
};

}  // namespace perfbench
