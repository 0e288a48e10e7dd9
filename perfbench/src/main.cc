// Wall-clock benchmark of the adaptive join operator on ThreadEngine.
//
//   perfbench --workload <skew_equi|band_fluct|tpch_cascade> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//   perfbench --selftest
//
// Every run generates its inputs from --seed, computes the reference results
// from the generated tuples alone, and drives the public operator API from
// this (single) generator thread, one fresh engine per round:
//
//  - closed rounds push the whole stream as fast as credit backpressure
//    allows, send EOS and wait for quiescence;
//  - paced rounds offer a stream of the same make-up at the workload's
//    fixed rate, in 1 ms ticks, sleeping between ticks.
//
// Every round's output is checked against the reference and against the
// conservation identities (CheckRound). --trace 0 prints the end-to-end
// metrics; --trace 1 runs the same job once more on a TracingEngine and
// prints the per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. README.md documents the
// workloads, the metrics and what each per-layer metric should move.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/trace_ring.h"
#include "src/core/agg.h"
#include "src/core/operator.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/sim/sim_engine.h"

namespace perfbench {
namespace {

using ajoin::AggOperator;
using ajoin::Engine;
using ajoin::JoinOperator;

constexpr uint32_t kIngressBatch = 64;
/// The paced generator offers the tuples due in each 1 ms tick together and
/// sleeps between ticks. Sleeping until each tuple's own due time instead
/// flushes a few tuples at a time, every tiny flush wakes task threads, and
/// these then keep the four cores busy whatever the rate, so the latencies
/// measure how much CPU the host leaves over rather than the program.
constexpr int64_t kPacedTickNs = 1000000;

// --------------------------------------------------------------- helpers --

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// q-quantile (nearest rank) of `v`, which it partially reorders.
double Quantile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

/// Result latencies pooled over rounds: counts in 1 us buckets up to about
/// one second (longer latencies count in the last bucket).
class LatencyHistogram {
 public:
  void Add(const std::vector<uint32_t>& latencies_ns) {
    for (uint32_t ns : latencies_ns) {
      ++counts_[std::min<size_t>(ns / 1000, kBuckets - 1)];
    }
    total_ += latencies_ns.size();
  }

  /// q-quantile in ms, interpolated linearly inside its bucket.
  double QuantileMs(double q) const {
    const double rank = q * static_cast<double>(total_);
    double below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const double c = counts_[b];
      if (c > 0 && below + c > rank) {
        return 1e-3 * (static_cast<double>(b) + (rank - below) / c);
      }
      below += c;
    }
    return 0;
  }

 private:
  static constexpr size_t kBuckets = 1 << 20;
  std::vector<uint32_t> counts_ = std::vector<uint32_t>(kBuckets, 0);
  uint64_t total_ = 0;
};

/// A /proc/self/status field in kB (VmRSS, VmHWM), or 0.
uint64_t StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

/// Time the hypervisor ran other guests while this machine's CPUs wanted to
/// run (the `steal` column of /proc/stat's `cpu` line, summed over CPUs), in
/// ms; 0 where the file is unreadable. Only read, to flag rounds whose
/// timings the host disturbed.
double HostStealMs() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (uint64_t& x : f) in >> x;
  if (!in || cpu != "cpu") return 0;
  return 1e3 * static_cast<double>(f[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct Usage {
  double cpu_s = 0;
  int64_t nvcsw = 0;
  int64_t nivcsw = 0;

  static Usage Now() {
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.nvcsw = ru.ru_nvcsw;
    u.nivcsw = ru.ru_nivcsw;
    return u;
  }
  Usage operator-(const Usage& o) const {
    return {cpu_s - o.cpu_s, nvcsw - o.nvcsw, nivcsw - o.nivcsw};
  }
};

void SleepUntil(int64_t due_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(due_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(due_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// -------------------------------------------------------------- topology --

/// What a round saw at quiescence: the result stream's digest and the
/// counters the conservation identities compare.
struct Observed {
  PairDigest pairs;          // join workloads
  GroupTable groups;         // cascade
  uint64_t sink_results = 0;
  uint64_t pushed[2] = {0, 0};          // per join stage (cascade: 1, 2)
  uint64_t routed[2] = {0, 0};          // Σ reshuffler routed tuples
  uint64_t joiner_outputs[2] = {0, 0};  // Σ joiner output counts
  uint64_t mig_out[2] = {0, 0};         // Σ mig_out_tuples
  uint64_t mig_in[2] = {0, 0};          // Σ mig_in_tuples
  uint64_t agg_in = 0;                  // Σ agg worker merged tuples
  uint64_t agg_cells_out = 0;
  uint64_t agg_cells_in = 0;
};

/// One named check and its failure message (empty = passed).
struct CheckResult {
  std::string name;
  std::string error;
};

std::vector<CheckResult> CheckRound(const Workload& w, const Observed& o) {
  std::vector<CheckResult> out;
  if (!w.cascade()) {
    out.push_back({"reference", CheckPairs(w.ref_pairs, o.pairs)});
    out.push_back({"routed", CheckEqual("pushed vs routed", o.pushed[0],
                                        o.routed[0])});
    out.push_back({"egress", CheckEqual("joiner outputs vs sink results",
                                        o.joiner_outputs[0], o.sink_results)});
    out.push_back({"migration", CheckEqual("mig_out vs mig_in", o.mig_out[0],
                                           o.mig_in[0])});
    return out;
  }
  uint64_t sink_tuples = 0;
  for (const auto& kv : o.groups) sink_tuples += kv.second.tuples;
  std::string ref = CheckGroups(w.ref_groups, o.groups);
  if (ref.empty()) {
    ref = CheckEqual("stage-1 outputs vs reference", w.ref_stage1_outputs,
                     o.joiner_outputs[0]);
  }
  if (ref.empty()) {
    ref = CheckEqual("stage-2 outputs vs reference", w.ref_stage2_outputs,
                     o.joiner_outputs[1]);
  }
  out.push_back({"reference", ref});
  std::string routed =
      CheckEqual("stage-1 pushed vs routed", o.pushed[0], o.routed[0]);
  if (routed.empty()) {
    routed = CheckEqual("stage-2 pushed + stage-1 outputs vs routed",
                        o.pushed[1] + o.joiner_outputs[0], o.routed[1]);
  }
  out.push_back({"routed", routed});
  out.push_back({"aggregated", CheckEqual("stage-2 outputs vs agg merged",
                                          o.joiner_outputs[1], o.agg_in)});
  out.push_back({"sink_tuples",
                 CheckEqual("stage-2 outputs vs tuples folded at the sink",
                            o.joiner_outputs[1], sink_tuples)});
  std::string mig =
      CheckEqual("stage-1 mig_out vs mig_in", o.mig_out[0], o.mig_in[0]);
  if (mig.empty()) {
    mig = CheckEqual("stage-2 mig_out vs mig_in", o.mig_out[1], o.mig_in[1]);
  }
  if (mig.empty()) {
    mig = CheckEqual("agg cells out vs in", o.agg_cells_out, o.agg_cells_in);
  }
  out.push_back({"migration", mig});
  return out;
}

/// The operator assembly of one round on one engine: the join operator (or
/// the three-stage Dataflow) plus the benchmark's sink, which is added last
/// so every result edge points at a higher task id.
class Topology {
 public:
  Topology(Engine& engine, ajoin::ThreadEngine* threads, const Workload& w,
           const Schedule* schedule, bool record, bool trace_events)
      : engine_(engine), w_(w) {
    if (trace_events || w.cascade()) {
      trace_ = std::make_unique<ajoin::TraceRing>(1 << 14);
    }
    if (!w.cascade()) {
      ajoin::OperatorConfig cfg;
      cfg.spec = w.kind == Kind::kBandFluct
                     ? ajoin::MakeBandJoin(0, 0, -w.band_width, w.band_width)
                     : ajoin::MakeEquiJoin(0, 0);
      cfg.machines = 16;
      cfg.adaptive = true;
      cfg.keep_rows = false;
      // Decide the first migration on a settled R:S estimate, not on the
      // first few dozen arrivals.
      cfg.min_total_before_adapt = 16384;
      cfg.trace = trace_.get();
      op_ = std::make_unique<JoinOperator>(engine, cfg);
      joins_ = {op_.get()};
    } else {
      // The EQ5 shape of examples/tpch_pipeline.cc, with telemetry live.
      registry_ = std::make_unique<ajoin::MetricsRegistry>();
      flow_ = std::make_unique<ajoin::Dataflow>(engine);
      flow_->SetTelemetry(registry_.get(), trace_.get());
      ajoin::OperatorConfig a;
      a.spec = ajoin::MakeEquiJoin(1, ajoin::SupplierCols::kNationKey, "RN_S");
      a.machines = 4;
      a.min_total_before_adapt = 16;
      a.keep_rows = true;  // stage 2 keys on result-row column 3
      ajoin::OperatorConfig b;
      b.spec = ajoin::MakeEquiJoin(3, ajoin::LineitemCols::kSuppKey, "EQ5");
      b.machines = 16;
      // The first stage-2 decision waits until the dimension side has
      // arrived, so the mapping path does not depend on thread timing.
      b.min_total_before_adapt = 65536;
      b.keep_rows = false;
      ajoin::AggConfig g;
      g.machines = 8;
      g.min_total_before_adapt = 512;
      g.check_every = 256;
      const int dim = flow_->AddJoin(a);
      const int probe = flow_->AddJoin(b);
      const int per_supp = flow_->AddGroupBy(g);
      ajoin::Dataflow::ConnectOptions wire;
      wire.rel = ajoin::Rel::kR;
      wire.key_col = 3;
      flow_->Connect(dim, probe, wire);
      flow_->Connect(probe, per_supp);
      joins_ = {&flow_->join(dim), &flow_->join(probe)};
      agg_ = &flow_->groupby(per_supp);
      if (threads != nullptr) {
        sampler_ = std::make_unique<ajoin::TelemetrySampler>(registry_.get());
        sampler_->SetEdgeSource([threads] { return threads->edge_stats(); });
        sampler_->SetExchangeSource(
            [threads] { return threads->exchange_stats(); });
        sampler_->SetTraceSource(trace_.get());
      }
    }
    const uint64_t last = w.total() - 1;
    const size_t expected =
        w.cascade() ? w.ref_groups.size() : w.ref_pairs.count;
    auto sink = std::make_unique<BenchSink>(w.cascade(), schedule, last,
                                            expected, record);
    sink_ = sink.get();
    const int sink_id = engine.AddTask(std::move(sink));
    if (agg_ != nullptr) {
      agg_->RouteResultsTo({sink_id});
    } else {
      op_->RouteResultsTo({sink_id});
    }
    for (JoinOperator* op : joins_) op->SetIngressBatch(kIngressBatch);
  }

  ~Topology() { StopSampler(); }

  void Start() {
    engine_.Start();
    if (sampler_) sampler_->Start();
  }

  void Push(size_t i) {
    if (i < w_.stage1.size()) {
      joins_[0]->Push(w_.stage1[i]);
    } else {
      joins_.back()->Push(w_.stream[i - w_.stage1.size()]);
    }
  }

  void FlushInput() {
    if (flow_) {
      flow_->FlushInput();
    } else {
      op_->FlushInput();
    }
  }

  void SendEos() {
    if (flow_) {
      flow_->SendEos();
    } else {
      op_->SendEos();
    }
  }

  void StopSampler() {
    if (sampler_) sampler_->Stop();
  }

  /// Counters and result digests (engine quiescent).
  Observed Observe() const {
    Observed o;
    o.sink_results = sink_->results();
    o.pairs = sink_->digest();
    if (w_.cascade()) o.groups = FoldGroupRows(sink_->rows());
    for (size_t s = 0; s < joins_.size(); ++s) {
      const JoinOperator& op = *joins_[s];
      o.pushed[s] = op.pushed_total();
      for (uint32_t r = 0; r < op.num_reshufflers(); ++r) {
        o.routed[s] += op.reshuffler(r).metrics().routed_tuples;
      }
      for (size_t j = 0; j < op.num_joiner_slots(); ++j) {
        const ajoin::JoinerMetrics& m = op.joiner(j).metrics();
        o.joiner_outputs[s] += op.joiner(j).output_count();
        o.mig_out[s] += m.mig_out_tuples;
        o.mig_in[s] += m.mig_in_tuples;
      }
    }
    if (agg_ != nullptr) {
      for (uint32_t i = 0; i < agg_->num_workers(); ++i) {
        o.agg_in += agg_->worker(i).in_tuples();
        o.agg_cells_out += agg_->worker(i).mig_out_cells();
        o.agg_cells_in += agg_->worker(i).mig_in_cells();
      }
    }
    return o;
  }

  const std::vector<JoinOperator*>& joins() const { return joins_; }
  /// The stage whose ILF the benchmark reports (cascade: the Lineitem
  /// stage).
  const JoinOperator& ilf_stage() const { return *joins_.back(); }
  const AggOperator* agg() const { return agg_; }
  const BenchSink& sink() const { return *sink_; }
  const ajoin::TraceRing* trace() const { return trace_.get(); }

 private:
  Engine& engine_;
  const Workload& w_;
  std::unique_ptr<ajoin::TraceRing> trace_;
  std::unique_ptr<ajoin::MetricsRegistry> registry_;
  std::unique_ptr<JoinOperator> op_;
  std::unique_ptr<ajoin::Dataflow> flow_;
  std::vector<JoinOperator*> joins_;
  AggOperator* agg_ = nullptr;
  BenchSink* sink_ = nullptr;
  // Declared last: stopped (in the destructor) before the registry and
  // trace ring it reads are destroyed.
  std::unique_ptr<ajoin::TelemetrySampler> sampler_;
};

// ----------------------------------------------------------------- round --

enum class EngineKind { kThreads, kTraced, kSim };

struct RoundResult {
  std::vector<CheckResult> checks;
  Observed observed;
  std::vector<BenchSink::Recorded> recorded;  // record mode
  uint64_t tuples = 0;
  double setup_s = 0;
  double run_s = 0;    // first push -> quiescence after EOS
  double push_s = 0;   // first push -> last Push returned
  double flush_s = 0;  // EOS sent -> quiescence
  Usage usage;         // process CPU and context switches over run_s
  double steal_ms = 0;  // host steal time over run_s, all CPUs
  double ilf_mb = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::vector<uint32_t> latencies_ns;  // paced: every result's, reordered
  double gen_lag_p99_ms = 0;
  // Per-layer inputs (threaded engines only).
  ajoin::ExchangeStatsSnapshot exchange;
  std::vector<ajoin::EdgeStatsSnapshot> edges;
  uint64_t task_threads = 0;
  int ingress_producer_base = 0;  // edge producers >= this are ingress ports
  std::vector<TaskTrace> tasks;   // traced engine only
  uint64_t reshuffler_sent = 0;
  uint64_t joiner_in = 0;
  uint64_t probe_candidates = 0;
  uint64_t stored_bytes = 0;
  uint64_t migrations = 0;
  double migration_ms = 0;
  uint64_t sink_batches = 0;

  bool ok() const {
    for (const CheckResult& c : checks) {
      if (!c.error.empty()) return false;
    }
    return true;
  }
};

/// Sum over (stage, epoch) of the window from the first joiner's migration
/// begin to the last joiner's finalize, in ms.
double MigrationWindowsMs(const ajoin::TraceRing& trace,
                          const std::vector<JoinOperator*>& joins) {
  std::map<std::pair<size_t, uint64_t>, std::pair<uint64_t, uint64_t>> win;
  for (const ajoin::TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind != ajoin::TraceEventKind::kMigrationBegin &&
        ev.kind != ajoin::TraceEventKind::kMigrationFinalize) {
      continue;
    }
    for (size_t s = 0; s < joins.size(); ++s) {
      const std::vector<int>& ids = joins[s]->joiner_task_ids();
      if (std::find(ids.begin(), ids.end(), ev.task) == ids.end()) continue;
      auto it = win.try_emplace({s, ev.a}, UINT64_MAX, 0).first;
      if (ev.kind == ajoin::TraceEventKind::kMigrationBegin) {
        it->second.first = std::min(it->second.first, ev.t_us);
      } else {
        it->second.second = std::max(it->second.second, ev.t_us);
      }
    }
  }
  double ms = 0;
  for (const auto& kv : win) {
    if (kv.second.first != UINT64_MAX && kv.second.second >= kv.second.first) {
      ms += 1e-3 * static_cast<double>(kv.second.second - kv.second.first);
    }
  }
  return ms;
}

RoundResult RunRound(const Workload& w, EngineKind kind, bool paced,
                     bool record, const std::string& span_csv) {
  RoundResult res;
  res.tuples = w.total();
  Schedule schedule;
  schedule.tick_ns = kPacedTickNs;
  schedule.per_tick = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(w.paced_rate * 1e-9 *
                                            static_cast<double>(kPacedTickNs))));

  const int64_t t_setup = NowNs();
  std::unique_ptr<Engine> engine;
  ajoin::ThreadEngine* threads = nullptr;
  TracingEngine* traced = nullptr;
  if (kind == EngineKind::kSim) {
    engine = std::make_unique<ajoin::SimEngine>();
  } else if (kind == EngineKind::kTraced) {
    auto e = std::make_unique<TracingEngine>(ajoin::ExchangeConfig());
    traced = e.get();
    threads = &e->inner();
    engine = std::move(e);
  } else {
    auto e = std::make_unique<ajoin::ThreadEngine>();
    threads = e.get();
    engine = std::move(e);
  }
  Topology topo(*engine, threads, w, paced ? &schedule : nullptr, record,
                kind == EngineKind::kTraced);
  topo.Start();
  res.setup_s = 1e-9 * static_cast<double>(NowNs() - t_setup);

  const size_t n = w.total();
  std::vector<uint32_t> lag_ns;
  const Usage u0 = Usage::Now();
  const double steal0 = HostStealMs();
  const int64_t t0 = NowNs();
  if (!paced) {
    for (size_t i = 0; i < n; ++i) {
      topo.Push(i);
      // The simulator only delivers inside WaitQuiescent; drain it
      // periodically so its global queue stays bounded.
      if (kind == EngineKind::kSim && (i & 4095) == 4095) {
        topo.FlushInput();
        engine->WaitQuiescent();
      }
    }
  } else {
    lag_ns.reserve(n);
    schedule.t0_ns.store(t0, std::memory_order_release);
    size_t i = 0;
    while (i < n) {
      const int64_t now = NowNs();
      int64_t due = schedule.Due(i);
      if (now < due) {
        topo.FlushInput();
        SleepUntil(due);
        continue;
      }
      do {
        lag_ns.push_back(static_cast<uint32_t>(
            std::min<int64_t>(now - due, UINT32_MAX)));
        topo.Push(i);
        ++i;
        due = schedule.Due(i);
      } while (i < n && due <= now);
    }
  }
  const int64_t t_pushed = NowNs();
  topo.SendEos();
  engine->WaitQuiescent();
  const int64_t t_end = NowNs();
  res.usage = Usage::Now() - u0;
  res.steal_ms = HostStealMs() - steal0;
  res.push_s = 1e-9 * static_cast<double>(t_pushed - t0);
  res.flush_s = 1e-9 * static_cast<double>(t_end - t_pushed);
  res.run_s = 1e-9 * static_cast<double>(t_end - t0);
  topo.StopSampler();

  res.observed = topo.Observe();
  res.checks = CheckRound(w, res.observed);
  if (record) res.recorded = topo.sink().recorded();
  res.ilf_mb = static_cast<double>(topo.ilf_stage().MaxInBytes()) / (1 << 20);
  if (paced) {
    res.latencies_ns = topo.sink().latencies_ns();
    res.latency_p50_ms = 1e-6 * Quantile(res.latencies_ns, 0.50);
    res.latency_p99_ms = 1e-6 * Quantile(res.latencies_ns, 0.99);
    res.gen_lag_p99_ms = 1e-6 * Quantile(lag_ns, 0.99);
  }
  res.sink_batches = topo.sink().batches();
  for (const JoinOperator* op : topo.joins()) {
    for (uint32_t r = 0; r < op->num_reshufflers(); ++r) {
      res.reshuffler_sent += op->reshuffler(r).metrics().sent_msgs;
    }
    for (size_t j = 0; j < op->num_joiner_slots(); ++j) {
      const ajoin::JoinerMetrics& m = op->joiner(j).metrics();
      res.joiner_in += m.in_tuples;
      res.probe_candidates += m.probe_candidates;
      res.stored_bytes += m.stored_bytes;
    }
    if (op->controller() != nullptr) {
      res.migrations += op->controller()->log().size();
    }
  }
  if (topo.trace() != nullptr) {
    res.migration_ms = MigrationWindowsMs(*topo.trace(), topo.joins());
  }
  if (threads != nullptr) {
    res.exchange = threads->exchange_stats();
    res.edges = threads->edge_stats();
    res.task_threads = threads->worker_activations();
    res.ingress_producer_base = static_cast<int>(engine->num_tasks());
  }
  if (traced != nullptr) {
    res.tasks = traced->Summaries();
    if (!span_csv.empty() && !traced->WriteSummaries(span_csv)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", span_csv.c_str());
    }
  }
  engine->Shutdown();
  return res;
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Reports every failed check of a round on stderr; returns round.ok().
bool Report(const char* phase, size_t index, const RoundResult& r) {
  std::fprintf(stderr,
               "perfbench: %s round %zu: %.3f s, %.0f tuples/s, %" PRIu64
               " migrations, p50/p99 %.3f/%.3f ms, cpu %.3f s, host steal "
               "%.0f ms\n",
               phase, index, r.run_s,
               static_cast<double>(r.tuples) / r.run_s, r.migrations,
               r.latency_p50_ms, r.latency_p99_ms, r.usage.cpu_s, r.steal_ms);
  for (const CheckResult& c : r.checks) {
    if (!c.error.empty()) {
      std::fprintf(stderr, "perfbench: %s round %zu: check %s failed: %s\n",
                   phase, index, c.name.c_str(), c.error.c_str());
    }
  }
  return r.ok();
}

// ---------------------------------------------------------- measurements --

/// The seed of paced round `round`'s stream, drawn from the run's seed.
uint64_t PacedSeed(uint64_t seed, size_t round) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(round) + 1));
}

/// --trace 0: a warm-up round, closed rounds for 30% of the run, then paced
/// rounds while another one fits; every end-to-end metric. The closed rounds
/// offer the stream of `seed`; each paced round offers a stream of its own
/// (PacedSeed), generated into `*wp` in place. On the join workloads the
/// latency percentiles are taken over the results of all paced rounds
/// together: a round's p99 rests on a few result bursts (skew_equi: the R
/// probes of the hottest keys, each emitting up to ~33k results at once), and
/// pooling the rounds' streams spreads it over many bursts. The cascade's
/// results are its final aggregates, which all arrive at the flush, so each
/// round gives one sample of the answer latency; there the median over rounds
/// of each round's percentile is taken (pooled, p99 would be the worst
/// round).
int RunEndToEnd(Workload* wp, uint64_t seed, double seconds,
                uint64_t rss_base_kb) {
  const Workload& w = *wp;
  const int64_t start = NowNs();
  auto elapsed = [start] { return 1e-9 * static_cast<double>(NowNs() - start); };
  bool correct = true;
  uint64_t attempted = 0;
  std::vector<double> tps, ilf, p50, p99, cpu;
  LatencyHistogram latencies;
  // Warm-up round: its set-up is the cold one (setup_s); its throughput is
  // not counted, since later rounds reuse the allocator's warm pages.
  RoundResult warm = RunRound(w, EngineKind::kThreads, false, false, "");
  correct = Report("warm-up", 0, warm) && correct;
  const double setup_s = warm.setup_s;
  attempted += warm.tuples;
  while (tps.size() < 3 || elapsed() < 0.3 * seconds) {
    RoundResult r = RunRound(w, EngineKind::kThreads, false, false, "");
    correct = Report("closed", tps.size(), r) && correct;
    tps.push_back(static_cast<double>(r.tuples) / r.run_s);
    ilf.push_back(r.ilf_mb);
    attempted += r.tuples;
  }
  const double paced_round_s = static_cast<double>(w.total()) / w.paced_rate;
  while (cpu.size() < 2 || elapsed() + paced_round_s < seconds) {
    const std::string name = w.name;  // MakeWorkload resets *wp first
    MakeWorkload(name, PacedSeed(seed, cpu.size()), 1.0, wp);
    RoundResult r = RunRound(w, EngineKind::kThreads, true, false, "");
    correct = Report("paced", cpu.size(), r) && correct;
    latencies.Add(r.latencies_ns);
    p50.push_back(r.latency_p50_ms);
    p99.push_back(r.latency_p99_ms);
    cpu.push_back(1e6 * r.usage.cpu_s / static_cast<double>(r.tuples));
    attempted += r.tuples;
  }
  const uint64_t hwm_kb = StatusKb("VmHWM");
  const double peak_rss_mb =
      static_cast<double>(hwm_kb - std::min(hwm_kb, rss_base_kb)) / 1024.0;
  std::fprintf(stderr, "perfbench: %s closed rounds %zu, paced rounds %zu\n",
               w.name.c_str(), tps.size(), cpu.size());
  const bool pooled = !w.cascade();
  PrintResult(correct, attempted, 0,
              {{"throughput_tps", Median(tps), "tuples/s"},
               {"latency_p50_ms",
                pooled ? latencies.QuantileMs(0.50) : Median(p50), "ms"},
               {"latency_p99_ms",
                pooled ? latencies.QuantileMs(0.99) : Median(p99), "ms"},
               {"cpu_us_per_tuple", Median(cpu), "us"},
               {"peak_rss_mb", peak_rss_mb, "MB"},
               {"ilf_mb", Median(ilf), "MB"},
               {"setup_s", setup_s, "s"}});
  return 0;
}

/// Per-layer sums of the traced tasks' call totals.
struct LayerTime {
  double wall_ms = 0;
  double cpu_ms = 0;
  uint64_t calls = 0;
  std::vector<double> task_cpu_ms;  // tasks that ran at least once
};

std::map<Layer, LayerTime> ByLayer(const std::vector<TaskTrace>& tasks) {
  std::map<Layer, LayerTime> out;
  for (const TaskTrace& t : tasks) {
    LayerTime& l = out[t.layer];
    l.wall_ms += 1e-6 * static_cast<double>(t.wall_ns);
    l.cpu_ms += 1e-6 * static_cast<double>(t.cpu_ns);
    l.calls += t.calls;
    if (t.calls > 0) l.task_cpu_ms.push_back(1e-6 * static_cast<double>(t.cpu_ns));
  }
  return out;
}

double MaxOverMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0, mx = 0;
  for (double x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  return sum > 0 ? mx * static_cast<double>(v.size()) / sum : 0;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

void AddRuntime(const char* phase, const RoundResult& r,
                std::vector<Metric>* out) {
  const std::string p = std::string("runtime.") + phase + ".";
  double wall_ms = 0, cpu_ms = 0;
  for (const TaskTrace& t : r.tasks) {
    wall_ms += 1e-6 * static_cast<double>(t.wall_ns);
    cpu_ms += 1e-6 * static_cast<double>(t.cpu_ns);
  }
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  out->push_back({p + "ctx_switches_voluntary",
                  static_cast<double>(r.usage.nvcsw), "count"});
  out->push_back({p + "ctx_switches_involuntary",
                  static_cast<double>(r.usage.nivcsw), "count"});
  out->push_back({p + "cpu_util", Ratio(r.usage.cpu_s, r.run_s * cores),
                  "ratio"});
  out->push_back({p + "descheduled_ms", wall_ms - cpu_ms, "ms"});
  const std::string e = std::string("exchange.") + phase + ".";
  out->push_back({e + "avg_batch_fill", r.exchange.avg_batch_fill,
                  "tuples/batch"});
  out->push_back({e + "deadline_flushes",
                  static_cast<double>(r.exchange.deadline_flushes), "count"});
}

/// --trace 1: untraced closed rounds (the overhead base), one traced closed
/// round, one traced paced round and one SimEngine round; every per-layer
/// metric.
int RunTraced(const Workload& w, double seconds, const std::string& dir) {
  const int64_t start = NowNs();
  auto elapsed = [start] { return 1e-9 * static_cast<double>(NowNs() - start); };
  bool correct = true;
  uint64_t attempted = 0;
  std::vector<double> tps;
  while (tps.size() < 3 || elapsed() < 0.3 * seconds) {
    RoundResult r = RunRound(w, EngineKind::kThreads, false, false, "");
    correct = Report("closed", tps.size(), r) && correct;
    tps.push_back(static_cast<double>(r.tuples) / r.run_s);
    attempted += r.tuples;
  }
  const std::string base = dir.empty() ? "" : dir + "/" + w.name;
  RoundResult c = RunRound(w, EngineKind::kTraced, false, false,
                           base.empty() ? "" : base + "-closed.csv");
  correct = Report("traced closed", 0, c) && correct;
  RoundResult p = RunRound(w, EngineKind::kTraced, true, false,
                           base.empty() ? "" : base + "-paced.csv");
  correct = Report("traced paced", 0, p) && correct;
  RoundResult s = RunRound(w, EngineKind::kSim, false, false, "");
  correct = Report("simulated", 0, s) && correct;
  attempted += c.tuples + p.tuples + s.tuples;

  std::map<Layer, LayerTime> layers = ByLayer(c.tasks);
  const Observed& o = c.observed;
  uint64_t routed = 0;
  for (uint64_t x : o.routed) routed += x;
  double ingress_wait_ms = 0, credit_wait_ms = 0;
  uint64_t ring_peak = 0;
  for (const ajoin::EdgeStatsSnapshot& e : c.edges) {
    const double ms = 1e-6 * static_cast<double>(e.credit_wait_ns);
    credit_wait_ms += ms;
    if (e.producer >= c.ingress_producer_base) ingress_wait_ms += ms;
    ring_peak = std::max<uint64_t>(ring_peak, e.ring_peak);
  }
  const LayerTime& resh = layers[Layer::kReshuffler];
  const LayerTime& join = layers[Layer::kJoiner];
  const LayerTime& sink = layers[Layer::kSink];
  const LayerTime& agg_r = layers[Layer::kAggRouter];
  const LayerTime& agg_w = layers[Layer::kAggWorker];
  uint64_t tuples_migrated = 0;
  for (uint64_t x : o.mig_in) tuples_migrated += x;
  const double tps_untraced = Median(tps);
  const double tps_traced = static_cast<double>(c.tuples) / c.run_s;
  const double n = static_cast<double>(c.tuples);

  std::vector<Metric> m = {
      {"operator.push_ns_per_tuple", 1e9 * c.push_s / n, "ns"},
      {"operator.ingress_credit_wait_ms", ingress_wait_ms, "ms"},
      {"operator.gen_lag_ms", p.gen_lag_p99_ms, "ms"},
      {"reshuffler.call_ms", resh.wall_ms, "ms"},
      {"reshuffler.cpu_ms", resh.cpu_ms, "ms"},
      {"reshuffler.cpu_ns_per_tuple",
       1e6 * Ratio(resh.cpu_ms, static_cast<double>(routed)), "ns"},
      {"reshuffler.fanout",
       Ratio(static_cast<double>(c.reshuffler_sent), static_cast<double>(routed)),
       "msgs/tuple"},
      {"exchange.credit_waits", static_cast<double>(c.exchange.credit_waits),
       "count"},
      {"exchange.credit_wait_ms", credit_wait_ms, "ms"},
      {"exchange.overflow_batches",
       static_cast<double>(c.exchange.overflow_batches), "count"},
      {"exchange.ring_peak", static_cast<double>(ring_peak), "batches"},
      {"joiner.call_ms", join.wall_ms, "ms"},
      {"joiner.cpu_ms", join.cpu_ms, "ms"},
      {"joiner.cpu_ns_per_input",
       1e6 * Ratio(join.cpu_ms, static_cast<double>(c.joiner_in)), "ns"},
      {"joiner.cpu_max_over_mean", MaxOverMean(join.task_cpu_ms), "ratio"},
      {"joiner.probe_candidates", static_cast<double>(c.probe_candidates),
       "count"},
      {"joiner.outputs",
       static_cast<double>(o.joiner_outputs[0] + o.joiner_outputs[1]), "count"},
      {"joiner.stored_mb", static_cast<double>(c.stored_bytes) / (1 << 20),
       "MB"},
      {"controller.migrations", static_cast<double>(c.migrations), "count"},
      {"controller.tuples_migrated", static_cast<double>(tuples_migrated),
       "count"},
      {"controller.migration_ms", c.migration_ms, "ms"},
      {"query.results", static_cast<double>(o.sink_results), "count"},
      {"query.sink_cpu_ms", sink.cpu_ms, "ms"},
      {"query.results_per_batch",
       Ratio(static_cast<double>(o.sink_results),
             static_cast<double>(c.sink_batches)),
       "results/batch"},
      {"agg.router_cpu_ms", agg_r.cpu_ms, "ms"},
      {"agg.worker_cpu_ms", agg_w.cpu_ms, "ms"},
      {"agg.worker_cpu_max_over_mean", MaxOverMean(agg_w.task_cpu_ms), "ratio"},
      {"agg.cells_migrated", static_cast<double>(o.agg_cells_in), "count"},
      {"agg.flush_ms", w.cascade() ? 1e3 * c.flush_s : 0, "ms"},
      {"runtime.task_threads", static_cast<double>(c.task_threads), "count"},
  };
  AddRuntime("closed", c, &m);
  AddRuntime("paced", p, &m);
  m.push_back({"trace.overhead_pct",
               100.0 * (tps_untraced - tps_traced) / tps_untraced, "%"});
  m.push_back({"baseline.single_thread_tps",
               static_cast<double>(s.tuples) / s.run_s, "tuples/s"});
  PrintResult(correct, attempted, 0, m);
  return 0;
}

// ------------------------------------------------------------- self-test --

/// Runs each workload small, checks that its genuine output passes every
/// check, then corrupts the result stream (and counters) and checks that the
/// named check rejects each corruption.
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](const Workload& w, const char* corruption,
                            const Observed& o, const char* check) {
    bool rejected = false;
    for (const CheckResult& c : CheckRound(w, o)) {
      if (c.name == check && !c.error.empty()) rejected = true;
    }
    std::printf("selftest %-13s %-26s -> check %-12s %s\n", w.name.c_str(),
                corruption, check, rejected ? "rejects" : "ACCEPTS (bad)");
    if (!rejected) ++failures;
  };
  for (const std::string& name : WorkloadNames()) {
    for (uint64_t seed : {1u, 2u}) {
      Workload w;
      MakeWorkload(name, seed, 0.1, &w);
      RoundResult r = RunRound(w, EngineKind::kThreads, false, true, "");
      const bool ok = Report("selftest", 0, r);
      std::printf("selftest %-13s seed %" PRIu64 " genuine stream: %s\n",
                  name.c_str(), seed, ok ? "passes" : "FAILS");
      if (!ok) ++failures;
      if (seed != 1) continue;
      const Observed& genuine = r.observed;
      if (!w.cascade()) {
        // Rebuild the digest from the recorded stream with one corruption.
        auto corrupt = [&](int what) {
          Observed o = genuine;
          o.pairs = PairDigest();
          const auto& rec = r.recorded;
          for (size_t i = 0; i < rec.size(); ++i) {
            BenchSink::Recorded x = rec[i];
            if (i == rec.size() / 2) {
              if (what == 0) continue;  // drop one pair
              if (what == 1) o.pairs.Add(x.seq, x.tag, x.weight);  // dup
              if (what == 2) x.seq += 1;        // wrong seq
              if (what == 3) x.weight = 0.5;    // weight != 1
            }
            o.pairs.Add(x.seq, x.tag, x.weight);
          }
          o.sink_results = o.pairs.count;
          return o;
        };
        expect(w, "one pair dropped", corrupt(0), "reference");
        expect(w, "one pair dropped", corrupt(0), "egress");
        expect(w, "one pair duplicated", corrupt(1), "reference");
        expect(w, "one pair duplicated", corrupt(1), "egress");
        expect(w, "one wrong seq", corrupt(2), "reference");
        expect(w, "one weight != 1", corrupt(3), "reference");
      } else {
        auto corrupt = [&](int what) {
          Observed o = genuine;
          auto it = o.groups.begin();
          std::advance(it, o.groups.size() / 2);
          if (what == 0) it->second.sum += 1;    // wrong group sum
          if (what == 1) o.groups.erase(it);     // one group row dropped
          if (what == 2) it->second.Fold(it->second);  // row duplicated
          if (what == 3) it->second.min -= 1;    // wrong group min
          return o;
        };
        expect(w, "one wrong group sum", corrupt(0), "reference");
        expect(w, "one wrong group min", corrupt(3), "reference");
        expect(w, "one group row dropped", corrupt(1), "reference");
        expect(w, "one group row dropped", corrupt(1), "sink_tuples");
        expect(w, "one group row duplicated", corrupt(2), "reference");
        expect(w, "one group row duplicated", corrupt(2), "sink_tuples");
        Observed lost = genuine;
        lost.agg_in -= 1;
        expect(w, "one aggregated tuple lost", lost, "aggregated");
      }
      Observed unrouted = genuine;
      unrouted.routed[0] -= 1;
      expect(w, "one tuple not routed", unrouted, "routed");
      Observed mig = genuine;
      mig.mig_in[0] += 1;
      expect(w, "one migrated tuple extra", mig, "migration");
    }
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_dir;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (selftest) return SelfTest();
  if (!(seconds > 0 && seconds <= 600) || (trace != 0 && trace != 1)) {
    return PrintUsage(argv[0]);
  }
  Workload w;
  if (!MakeWorkload(workload, seed, 1.0, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return PrintUsage(argv[0]);
  }
  std::fprintf(stderr,
               "perfbench: %s seed %" PRIu64 ": %zu input tuples, paced at "
               "%.0f/s, reference %" PRIu64 " results / %zu groups; build %s "
               "[%s], %u hardware threads\n",
               w.name.c_str(), seed, w.total(), w.paced_rate,
               w.cascade() ? w.ref_stage2_outputs : w.ref_pairs.count,
               w.ref_groups.size(), PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
               std::thread::hardware_concurrency());
  // Resident memory before any engine exists: the generated input and the
  // reference tables.
  const uint64_t rss_base_kb = StatusKb("VmRSS");
  return trace == 0 ? RunEndToEnd(&w, seed, seconds, rss_base_kb)
                    : RunTraced(w, seconds, trace_dir);
}
