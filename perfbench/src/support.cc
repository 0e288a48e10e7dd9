// Checks, the benchmark's result sink, and the tracing adapter.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "perfbench/src/bench.h"
#include "src/common/random.h"
#include "src/core/agg.h"
#include "src/core/joiner.h"
#include "src/core/reshuffler.h"

namespace perfbench {

// ---------------------------------------------------------------- checks --

uint64_t PairDigest::H1(uint64_t r_seq) {
  return ajoin::SplitMix64(r_seq ^ 0x5bd1e9955bd1e995ULL);
}

// Odd, so multiplying by it is a bijection mod 2^64: a wrong r_seq always
// changes its pair's term.
uint64_t PairDigest::H2(uint64_t s_seq) {
  return ajoin::SplitMix64(s_seq ^ 0xc2b2ae3d27d4eb4fULL) | 1;
}

std::string CheckEqual(const char* what, uint64_t a, uint64_t b) {
  if (a == b) return "";
  return std::string(what) + ": " + std::to_string(a) +
         " != " + std::to_string(b);
}

std::string CheckPairs(const PairDigest& want, const PairDigest& got) {
  std::string err = CheckEqual("result count", want.count, got.count);
  if (err.empty()) err = CheckEqual("pair checksum", want.checksum, got.checksum);
  if (err.empty()) err = CheckEqual("results with weight != 1", 0, got.inexact);
  return err;
}

std::string CheckGroups(const GroupTable& want, const GroupTable& got) {
  if (want.size() != got.size()) {
    return "group count: " + std::to_string(want.size()) +
           " != " + std::to_string(got.size());
  }
  for (const auto& [key, acc] : want) {
    auto it = got.find(key);
    if (it == got.end()) return "group " + std::to_string(key) + " missing";
    if (!(it->second == acc)) {
      char buf[256];
      const GroupAgg& g = it->second;
      std::snprintf(buf, sizeof(buf),
                    "group %lld: count/sum/min/max/tuples "
                    "%.17g/%.17g/%lld/%lld/%llu != %.17g/%.17g/%lld/%lld/%llu",
                    static_cast<long long>(key), acc.count, acc.sum,
                    static_cast<long long>(acc.min),
                    static_cast<long long>(acc.max),
                    static_cast<unsigned long long>(acc.tuples), g.count,
                    g.sum, static_cast<long long>(g.min),
                    static_cast<long long>(g.max),
                    static_cast<unsigned long long>(g.tuples));
      return buf;
    }
  }
  return "";
}

GroupTable FoldGroupRows(const std::vector<ajoin::Row>& rows) {
  GroupTable out;
  for (const ajoin::Row& row : rows) {
    GroupAgg part;
    part.count = row.Double(1);
    part.sum = row.Double(2);
    part.min = row.Int64(3);
    part.max = row.Int64(4);
    part.tuples = static_cast<uint64_t>(row.Int64(5));
    out[row.Int64(0)].Fold(part);
  }
  return out;
}

// ------------------------------------------------------------------ sink --

BenchSink::BenchSink(bool aggregate, const Schedule* schedule,
                     uint64_t last_input, size_t expected_results, bool record)
    : aggregate_(aggregate),
      schedule_(schedule),
      last_input_(last_input),
      record_(record) {
  if (schedule_ != nullptr) latencies_.reserve(expected_results);
  if (record_) recorded_.reserve(expected_results);
}

void BenchSink::Take(const Envelope& msg, int64_t now_ns) {
  ++results_;
  if (aggregate_) {
    rows_.push_back(msg.row);
  } else {
    digest_.Add(msg.seq, msg.tag, msg.weight);
  }
  if (record_) recorded_.push_back({msg.seq, msg.tag, msg.weight});
  if (schedule_ != nullptr) {
    const uint64_t later = aggregate_ ? last_input_ : std::max(msg.seq, msg.tag);
    const int64_t lat = now_ns - schedule_->Due(later);
    latencies_.push_back(static_cast<uint32_t>(std::clamp<int64_t>(
        lat, 0, std::numeric_limits<uint32_t>::max())));
  }
}

void BenchSink::OnMessage(Envelope msg, ajoin::Context& ctx) {
  (void)ctx;
  if (msg.type != ajoin::MsgType::kResult) return;  // kEos from each feeder
  ++batches_;
  Take(msg, schedule_ != nullptr ? NowNs() : 0);
}

void BenchSink::OnBatch(TupleBatch batch, ajoin::Context& ctx) {
  (void)ctx;
  if (batch.empty() || batch.items[0].type != ajoin::MsgType::kResult) return;
  ++batches_;
  const int64_t now = schedule_ != nullptr ? NowNs() : 0;
  for (const Envelope& msg : batch.items) Take(msg, now);
}

// --------------------------------------------------------------- tracing --

namespace {

Layer Classify(const ajoin::Task* task) {
  if (dynamic_cast<const ajoin::ReshufflerCore*>(task)) return Layer::kReshuffler;
  if (dynamic_cast<const ajoin::JoinerCore*>(task)) return Layer::kJoiner;
  if (dynamic_cast<const ajoin::AggRouterCore*>(task)) return Layer::kAggRouter;
  if (dynamic_cast<const ajoin::AggWorkerCore*>(task)) return Layer::kAggWorker;
  if (dynamic_cast<const BenchSink*>(task)) return Layer::kSink;
  return Layer::kOther;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kReshuffler: return "reshuffler";
    case Layer::kJoiner: return "joiner";
    case Layer::kAggRouter: return "agg_router";
    case Layer::kAggWorker: return "agg_worker";
    case Layer::kSink: return "sink";
    case Layer::kOther: return "other";
  }
  return "?";
}

}  // namespace

class TracingEngine::TimedTask : public ajoin::Task {
 public:
  explicit TimedTask(std::unique_ptr<ajoin::Task> inner)
      : inner_(std::move(inner)), layer_(Classify(inner_.get())) {}

  void OnMessage(Envelope msg, ajoin::Context& ctx) override {
    const int64_t t0 = NowNs();
    const int64_t c0 = ThreadCpuNs();
    inner_->OnMessage(std::move(msg), ctx);
    Record(t0, c0, 1);
  }

  void OnBatch(TupleBatch batch, ajoin::Context& ctx) override {
    const uint64_t n = batch.size();
    const int64_t t0 = NowNs();
    const int64_t c0 = ThreadCpuNs();
    inner_->OnBatch(std::move(batch), ctx);
    Record(t0, c0, n);
  }

  bool dormant() const override { return inner_->dormant(); }

  ajoin::Task* inner() const { return inner_.get(); }
  /// Totals so far (task id unset).
  TaskTrace totals() const {
    TaskTrace t = totals_;
    t.layer = layer_;
    return t;
  }

 private:
  void Record(int64_t t0, int64_t c0, uint64_t n) {
    const int64_t c1 = ThreadCpuNs();
    const int64_t t1 = NowNs();
    ++totals_.calls;
    totals_.envelopes += n;
    totals_.wall_ns += static_cast<uint64_t>(t1 - t0);
    totals_.cpu_ns += static_cast<uint64_t>(c1 - c0);
  }

  std::unique_ptr<ajoin::Task> inner_;
  const Layer layer_;
  TaskTrace totals_;  // written only by this task's dispatches
};

TracingEngine::TracingEngine(const ajoin::ExchangeConfig& config)
    : inner_(config) {}

TracingEngine::~TracingEngine() = default;

int TracingEngine::AddTask(std::unique_ptr<ajoin::Task> task) {
  auto timed = std::make_unique<TimedTask>(std::move(task));
  timed_.push_back(timed.get());
  return inner_.AddTask(std::move(timed));
}

ajoin::Task* TracingEngine::task(int id) {
  return timed_[static_cast<size_t>(id)]->inner();
}

std::vector<TaskTrace> TracingEngine::Summaries() const {
  std::vector<TaskTrace> out;
  out.reserve(timed_.size());
  for (size_t id = 0; id < timed_.size(); ++id) {
    TaskTrace t = timed_[id]->totals();
    t.task = static_cast<int>(id);
    out.push_back(t);
  }
  return out;
}

bool TracingEngine::WriteSummaries(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "task,layer,calls,envelopes,wall_ns,cpu_ns\n");
  for (const TaskTrace& t : Summaries()) {
    std::fprintf(f, "%d,%s,%llu,%llu,%llu,%llu\n", t.task, LayerName(t.layer),
                 static_cast<unsigned long long>(t.calls),
                 static_cast<unsigned long long>(t.envelopes),
                 static_cast<unsigned long long>(t.wall_ns),
                 static_cast<unsigned long long>(t.cpu_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
