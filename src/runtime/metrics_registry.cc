#include "src/runtime/metrics_registry.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/common/stopwatch.h"

namespace ajoin {

TelemetrySampler::TelemetrySampler(const MetricsRegistry* registry,
                                   Options options)
    : registry_(registry), options_(options) {}

TelemetrySampler::TelemetrySampler(const MetricsRegistry* registry)
    : TelemetrySampler(registry, Options()) {}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::SetEdgeSource(
    std::function<std::vector<EdgeStatsSnapshot>()> source) {
  edge_source_ = std::move(source);
}

void TelemetrySampler::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  exchange_source_ = std::move(source);
}

void TelemetrySampler::SetBacklogSource(std::function<uint64_t()> source) {
  backlog_source_ = std::move(source);
}

void TelemetrySampler::SetTraceSource(const TraceRing* trace) {
  trace_ = trace;
}

void TelemetrySampler::Attach(SampleObserver* observer) {
  observers_.push_back(observer);
}

TelemetrySample TelemetrySampler::SampleNow(uint64_t t_us) {
  TelemetrySample sample;
  sample.t_us = t_us;
  sample.tasks = registry_->Snapshot();
  if (edge_source_) sample.edges = edge_source_();
  if (exchange_source_) sample.exchange = exchange_source_();
  if (backlog_source_) sample.backlog = backlog_source_();
  {
    std::lock_guard<std::mutex> lock(mu_);
    series_.push_back(sample);
    taken_++;
    while (series_.size() > options_.capacity) series_.pop_front();
  }
  for (SampleObserver* observer : observers_) observer->OnSample(sample);
  return sample;
}

void TelemetrySampler::Start() {
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void TelemetrySampler::Stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  running_ = false;
}

void TelemetrySampler::Loop() {
  const auto period = std::chrono::microseconds(options_.period_us);
  for (;;) {
    SampleNow(SteadyNowMicros());
    std::unique_lock<std::mutex> lock(stop_mu_);
    // ajoin-lint: timed-park — sampler cadence; wakes every period even if
    // the stop notify is lost.
    if (stop_cv_.wait_for(lock, period, [this] { return stop_; })) {
      lock.unlock();
      SampleNow(SteadyNowMicros());  // final sample: series ends fresh
      return;
    }
  }
}

std::vector<TelemetrySample> TelemetrySampler::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TelemetrySample>(series_.begin(), series_.end());
}

uint64_t TelemetrySampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return taken_;
}

std::string TelemetrySampler::SummaryLine(const TelemetrySample& sample) {
  uint64_t in = 0, out = 0, stored = 0, migrations = 0, routed = 0;
  int migrating = 0, joiners = 0, reshufflers = 0, aggs = 0;
  for (const TaskSnapshot& task : sample.tasks) {
    if (task.kind == TaskKind::kJoiner) {
      joiners++;
      in += task.joiner.in_tuples;
      out += task.joiner.output_tuples;
      stored += task.joiner.stored_tuples;
      migrations += task.joiner.migrations_finalized;
      if (task.joiner.migrating) migrating++;
    } else if (task.kind == TaskKind::kAgg) {
      aggs++;
      in += task.agg.in_tuples;
      out += task.agg.emitted_results;
      stored += task.agg.groups;
      migrations += task.agg.migrations_finalized;
      if (task.agg.migrating) migrating++;
    } else {
      reshufflers++;
      routed += task.reshuffler.routed_tuples;
    }
  }
  uint64_t edge_waits = 0, edge_wait_ns = 0;
  uint32_t ring_peak = 0;
  for (const EdgeStatsSnapshot& edge : sample.edges) {
    edge_waits += edge.credit_waits;
    edge_wait_ns += edge.credit_wait_ns;
    if (edge.ring_peak > ring_peak) ring_peak = edge.ring_peak;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[telemetry t=%.3fs] %dJ+%dR+%dA in=%" PRIu64
                " routed=%" PRIu64 " out=%" PRIu64 " stored=%" PRIu64
                " migrations=%" PRIu64 " (%d live) stalls=%" PRIu64
                " stall_ms=%.2f ring_peak=%u",
                static_cast<double>(sample.t_us) / 1e6, joiners, reshufflers,
                aggs, in, routed, out, stored, migrations, migrating,
                edge_waits, static_cast<double>(edge_wait_ns) / 1e6,
                ring_peak);
  return std::string(buf);
}

namespace {

// Minimal JSON emission following bench_common.h's writer conventions
// (that header is bench-only, so the sampler carries its own emitter):
// string keys, %.6g doubles, no trailing commas, two-space indent top level.
void AppendKv(std::string* out, const char* key, uint64_t value, bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                *first ? "" : ", ", key, value);
  *first = false;
  out->append(buf);
}

void AppendKv(std::string* out, const char* key, double value, bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g", *first ? "" : ", ", key,
                value);
  *first = false;
  out->append(buf);
}

void AppendKv(std::string* out, const char* key, const char* value,
              bool* first) {
  out->append(*first ? "" : ", ");
  *first = false;
  out->append("\"");
  out->append(key);
  out->append("\": \"");
  out->append(value);
  out->append("\"");
}

void AppendTask(std::string* out, const TaskSnapshot& task) {
  bool first = true;
  out->append("{");
  AppendKv(out, "task", static_cast<uint64_t>(task.task), &first);
  AppendKv(out, "kind", TaskKindName(task.kind), &first);
  if (task.kind == TaskKind::kJoiner) {
    const JoinerSnapshot& j = task.joiner;
    AppendKv(out, "in_tuples", j.in_tuples, &first);
    AppendKv(out, "in_bytes", j.in_bytes, &first);
    AppendKv(out, "probe_candidates", j.probe_candidates, &first);
    AppendKv(out, "output_tuples", j.output_tuples, &first);
    AppendKv(out, "mig_out_tuples", j.mig_out_tuples, &first);
    AppendKv(out, "mig_in_tuples", j.mig_in_tuples, &first);
    AppendKv(out, "discarded_tuples", j.discarded_tuples, &first);
    AppendKv(out, "migrations_finalized", j.migrations_finalized, &first);
    AppendKv(out, "stored_tuples", j.stored_tuples, &first);
    AppendKv(out, "stored_bytes", j.stored_bytes, &first);
    AppendKv(out, "peak_stored_bytes", j.peak_stored_bytes, &first);
    AppendKv(out, "latency_count", j.latency_count, &first);
    AppendKv(out, "latency_sum_us", j.latency_sum_us, &first);
    AppendKv(out, "epoch", static_cast<uint64_t>(j.epoch), &first);
    AppendKv(out, "migrating", static_cast<uint64_t>(j.migrating ? 1 : 0),
             &first);
    AppendKv(out, "active", static_cast<uint64_t>(j.active ? 1 : 0), &first);
    AppendKv(out, "shed_probes_skipped", j.shed_probes_skipped, &first);
    AppendKv(out, "shed_rate_ppm", static_cast<uint64_t>(j.shed_rate_ppm),
             &first);
  } else if (task.kind == TaskKind::kAgg) {
    const AggSnapshot& a = task.agg;
    AppendKv(out, "in_tuples", a.in_tuples, &first);
    AppendKv(out, "in_bytes", a.in_bytes, &first);
    AppendKv(out, "groups", a.groups, &first);
    AppendKv(out, "table_bytes", a.table_bytes, &first);
    AppendKv(out, "mig_out_cells", a.mig_out_cells, &first);
    AppendKv(out, "mig_in_cells", a.mig_in_cells, &first);
    AppendKv(out, "migrations_finalized", a.migrations_finalized, &first);
    AppendKv(out, "emitted_results", a.emitted_results, &first);
    AppendKv(out, "epoch", static_cast<uint64_t>(a.epoch), &first);
    AppendKv(out, "migrating", static_cast<uint64_t>(a.migrating ? 1 : 0),
             &first);
    AppendKv(out, "flushed", static_cast<uint64_t>(a.flushed ? 1 : 0), &first);
  } else {
    const ReshufflerSnapshot& r = task.reshuffler;
    AppendKv(out, "routed_tuples", r.routed_tuples, &first);
    AppendKv(out, "sent_msgs", r.sent_msgs, &first);
    AppendKv(out, "sent_bytes", r.sent_bytes, &first);
    AppendKv(out, "epoch_changes", r.epoch_changes, &first);
    AppendKv(out, "results_restamped", r.results_restamped, &first);
  }
  out->append("}");
}

void AppendEdge(std::string* out, const EdgeStatsSnapshot& edge) {
  bool first = true;
  out->append("{");
  AppendKv(out, "producer", static_cast<uint64_t>(edge.producer), &first);
  AppendKv(out, "consumer", static_cast<uint64_t>(edge.consumer), &first);
  AppendKv(out, "bounded", static_cast<uint64_t>(edge.bounded ? 1 : 0),
           &first);
  AppendKv(out, "batches", edge.batches, &first);
  AppendKv(out, "envelopes", edge.envelopes, &first);
  AppendKv(out, "credit_waits", edge.credit_waits, &first);
  AppendKv(out, "credit_wait_ns", edge.credit_wait_ns, &first);
  AppendKv(out, "overflow_batches", edge.overflow_batches, &first);
  AppendKv(out, "ring_occupancy", static_cast<uint64_t>(edge.ring_occupancy),
           &first);
  AppendKv(out, "ring_peak", static_cast<uint64_t>(edge.ring_peak), &first);
  AppendKv(out, "ring_capacity", static_cast<uint64_t>(edge.ring_capacity),
           &first);
  AppendKv(out, "overflow_depth", static_cast<uint64_t>(edge.overflow_depth),
           &first);
  out->append("}");
}

void AppendSample(std::string* out, const TelemetrySample& sample) {
  out->append("    {");
  bool first = true;
  AppendKv(out, "t_us", sample.t_us, &first);
  out->append(", \"exchange\": {");
  bool xfirst = true;
  AppendKv(out, "envelopes", sample.exchange.envelopes, &xfirst);
  AppendKv(out, "batches", sample.exchange.batches, &xfirst);
  AppendKv(out, "credit_waits", sample.exchange.credit_waits, &xfirst);
  AppendKv(out, "credit_wait_ns", sample.exchange.credit_wait_ns, &xfirst);
  AppendKv(out, "overflow_batches", sample.exchange.overflow_batches, &xfirst);
  out->append("}, \"tasks\": [");
  for (size_t i = 0; i < sample.tasks.size(); ++i) {
    if (i != 0) out->append(", ");
    AppendTask(out, sample.tasks[i]);
  }
  out->append("], \"edges\": [");
  for (size_t i = 0; i < sample.edges.size(); ++i) {
    if (i != 0) out->append(", ");
    AppendEdge(out, sample.edges[i]);
  }
  out->append("]}");
}

}  // namespace

bool TelemetrySampler::WriteJson(const std::string& path,
                                 const std::string& name) const {
  const std::vector<TelemetrySample> samples = series();
  std::string out;
  out.reserve(4096 + samples.size() * 512);
  out.append("{\n  \"telemetry\": \"");
  out.append(name);
  out.append("\",\n  \"schema_version\": 1,\n  \"meta\": {");
  bool mfirst = true;
  AppendKv(&out, "period_us", options_.period_us, &mfirst);
  AppendKv(&out, "capacity", static_cast<uint64_t>(options_.capacity),
           &mfirst);
  AppendKv(&out, "samples_taken", samples_taken(), &mfirst);
  AppendKv(&out, "samples_kept", static_cast<uint64_t>(samples.size()),
           &mfirst);
  AppendKv(&out, "tasks",
           static_cast<uint64_t>(registry_ != nullptr ? registry_->size() : 0),
           &mfirst);
  out.append("},\n  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    AppendSample(&out, samples[i]);
    if (i + 1 != samples.size()) out.append(",");
    out.append("\n");
  }
  out.append("  ],\n  \"trace\": [\n");
  if (trace_ != nullptr) {
    const std::vector<TraceEvent> events = trace_->Snapshot();
    for (size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      bool first = true;
      out.append("    {");
      AppendKv(&out, "index", ev.index, &first);
      AppendKv(&out, "kind", TraceEventKindName(ev.kind), &first);
      AppendKv(&out, "task",
               static_cast<uint64_t>(static_cast<int64_t>(ev.task)), &first);
      AppendKv(&out, "t_us", ev.t_us, &first);
      AppendKv(&out, "a", ev.a, &first);
      AppendKv(&out, "b", ev.b, &first);
      out.append("}");
      if (i + 1 != events.size()) out.append(",");
      out.append("\n");
    }
  }
  out.append("  ]\n}\n");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ajoin
