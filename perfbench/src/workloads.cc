// Workload generation and the reference results, computed from the generated
// tuples with plain per-key arrays and hash maps.

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "perfbench/src/bench.h"
#include "src/common/random.h"
#include "src/datagen/tpch.h"

namespace perfbench {

namespace {

using ajoin::Rel;

StreamTuple Slim(Rel rel, int64_t key, uint32_t bytes) {
  StreamTuple t;
  t.rel = rel;
  t.key = key;
  t.bytes = bytes;
  return t;
}

uint64_t Scaled(uint64_t n, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(
                                   static_cast<double>(n) * scale)));
}

// skew_equi: R is eight passes over [1, D], each pass a random permutation;
// S keys are Zipf(1.0) over [1, D], |S| = 4|R|; the two are randomly
// interleaved (R chosen with probability proportional to the remaining R
// count). The latency tail is set by the R probes of the hottest keys (one
// emits up to S_1 ~ 33k results, all due when the R arrives). Eight per key,
// one in each eighth of R, rather than a Poisson number at uniform
// positions, keeps the sizes of those bursts alike across streams and puts
// several of them, not one, in the top 1% of results. Reference: per-key
// sums.
void MakeSkewEqui(uint64_t seed, double scale, Workload* w) {
  const uint64_t domain = Scaled(10000, scale);
  const uint64_t n_r = 8 * domain;
  const uint64_t n_s = 4 * n_r;
  w->kind = Kind::kSkewEqui;
  w->paced_rate = 150000;
  ajoin::Rng rng(seed ^ 0x736b65775f657175ULL);
  ajoin::ZipfSampler zipf(domain, 1.0);
  std::vector<int64_t> r_keys(n_r);
  for (uint64_t i = 0; i < n_r; ++i) {
    const uint64_t pass = i - i % domain;
    r_keys[i] = static_cast<int64_t>(i % domain + 1);
    std::swap(r_keys[i], r_keys[pass + rng.Uniform(i - pass + 1)]);
  }
  w->stream.reserve(n_r + n_s);
  uint64_t left_r = n_r, left_s = n_s;
  while (left_r + left_s > 0) {
    if (rng.Uniform(left_r + left_s) < left_r) {
      w->stream.push_back(Slim(Rel::kR, r_keys[n_r - left_r], 32));
      --left_r;
    } else {
      w->stream.push_back(
          Slim(Rel::kS, static_cast<int64_t>(zipf.Sample(rng)), 32));
      --left_s;
    }
  }
  std::vector<uint64_t> cnt[2], sum[2];
  for (int rel = 0; rel < 2; ++rel) {
    cnt[rel].assign(domain + 1, 0);
    sum[rel].assign(domain + 1, 0);
  }
  for (uint64_t seq = 0; seq < w->stream.size(); ++seq) {
    const StreamTuple& t = w->stream[seq];
    const int rel = t.rel == Rel::kR ? 0 : 1;
    const size_t k = static_cast<size_t>(t.key);
    ++cnt[rel][k];
    sum[rel][k] += rel == 0 ? PairDigest::H1(seq) : PairDigest::H2(seq);
  }
  for (size_t k = 0; k <= domain; ++k) {
    w->ref_pairs.count += cnt[0][k] * cnt[1][k];
    w->ref_pairs.checksum += sum[0][k] * sum[1][k];
  }
}

// band_fluct: R and S keys uniform over [0, D), band |r - s| <= 2, arrival
// ratio fluctuating at k = 2 (the paper's section 5.4 rule: emit R until
// |R| >= k|S|, then S until |S| >= k|R|, and so on). Reference: prefix sums
// of per-key R counts and hashes, probed by every S tuple.
void MakeBandFluct(uint64_t seed, double scale, Workload* w) {
  const uint64_t n = Scaled(300000, scale);
  const uint64_t domain = Scaled(120000, scale);
  const double k = 2.0;
  w->kind = Kind::kBandFluct;
  w->paced_rate = 100000;
  w->band_width = 2;
  ajoin::Rng rng(seed ^ 0x62616e645f666cULL);
  w->stream.reserve(n);
  uint64_t emitted[2] = {0, 0};
  Rel phase = Rel::kR;
  for (uint64_t i = 0; i < n; ++i) {
    const double c_r = static_cast<double>(emitted[0]);
    const double c_s = static_cast<double>(emitted[1]);
    if (phase == Rel::kR && c_r >= k * std::max(c_s, 1.0)) {
      phase = Rel::kS;
    } else if (phase == Rel::kS && c_s >= k * std::max(c_r, 1.0)) {
      phase = Rel::kR;
    }
    ++emitted[phase == Rel::kR ? 0 : 1];
    w->stream.push_back(
        Slim(phase, static_cast<int64_t>(rng.Uniform(domain)), 32));
  }
  // Prefix sums over the key domain: index k + 1 covers keys [0, k].
  std::vector<uint64_t> cnt(domain + 1, 0), sum(domain + 1, 0);
  for (uint64_t seq = 0; seq < n; ++seq) {
    const StreamTuple& t = w->stream[seq];
    if (t.rel != Rel::kR) continue;
    ++cnt[static_cast<size_t>(t.key) + 1];
    sum[static_cast<size_t>(t.key) + 1] += PairDigest::H1(seq);
  }
  for (size_t i = 1; i <= domain; ++i) {
    cnt[i] += cnt[i - 1];
    sum[i] += sum[i - 1];
  }
  const int64_t width = w->band_width;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const StreamTuple& t = w->stream[seq];
    if (t.rel != Rel::kS) continue;
    const size_t lo = static_cast<size_t>(std::max<int64_t>(0, t.key - width));
    const size_t hi = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(domain) - 1, t.key + width));
    w->ref_pairs.count += cnt[hi + 1] - cnt[lo];
    w->ref_pairs.checksum += PairDigest::H2(seq) * (sum[hi + 1] - sum[lo]);
  }
}

// tpch_cascade: the EQ5 shape. Stage 1 joins Region(0)⋈Nation rows (R,
// keyed by nation) with suppliers (S, keyed by nation); stage 2 joins its
// results (keyed by s_suppkey, result-row column 3) with Lineitem (S, keyed
// by the Zipf(0.5) supplier foreign key); stage 3 groups by supplier,
// aggregating result bytes. Lineitem byte sizes vary with l_quantity so the
// per-group SUM depends on which lineitems joined. Reference: hash maps over
// the generated rows.
void MakeTpchCascade(uint64_t seed, double scale, Workload* w) {
  ajoin::TpchConfig cfg;
  cfg.gb = 1.0;
  cfg.lineitem_rows_per_gb = Scaled(600000, scale);
  cfg.zipf_z = 0.5;
  cfg.seed = seed;
  ajoin::TpchGen gen(cfg);
  w->kind = Kind::kTpchCascade;
  w->paced_rate = 400000;
  constexpr uint32_t kRnBytes = 24, kSupplierBytes = 24;

  std::unordered_map<int64_t, uint64_t> rn_per_nation;
  for (uint64_t i = 0; i < static_cast<uint64_t>(ajoin::kNumNations); ++i) {
    ajoin::Row nation = gen.Nation(i);
    const int64_t region = nation.Int64(ajoin::NationCols::kRegionKey);
    if (region != 0) continue;
    ajoin::Row rn;
    rn.Append(ajoin::Value(region));
    rn.AppendAll(nation);
    StreamTuple t = Slim(Rel::kR, rn.Int64(1), kRnBytes);
    t.has_row = true;
    t.row = std::move(rn);
    ++rn_per_nation[t.key];
    w->stage1.push_back(std::move(t));
  }
  // Stage-1 results per supplier key (each carries RN + supplier bytes).
  std::unordered_map<int64_t, uint64_t> stage1_per_supp;
  for (uint64_t i = 0; i < cfg.NumSuppliers(); ++i) {
    StreamTuple t = Slim(Rel::kS, gen.SupplierNation(i), kSupplierBytes);
    t.has_row = true;
    t.row = gen.Supplier(i);
    auto it = rn_per_nation.find(t.key);
    if (it != rn_per_nation.end()) {
      stage1_per_supp[t.row.Int64(ajoin::SupplierCols::kSuppKey)] += it->second;
      w->ref_stage1_outputs += it->second;
    }
    w->stage1.push_back(std::move(t));
  }
  const uint64_t n_li = cfg.NumLineitem();
  w->stream.reserve(n_li);
  for (uint64_t i = 0; i < n_li; ++i) {
    const ajoin::LineitemLite li = gen.LineitemFast(i);
    const uint32_t bytes = 24 + static_cast<uint32_t>(li.quantity % 16);
    w->stream.push_back(Slim(Rel::kS, li.suppkey, bytes));
    auto it = stage1_per_supp.find(li.suppkey);
    if (it == stage1_per_supp.end()) continue;
    const int64_t value = kRnBytes + kSupplierBytes + bytes;
    for (uint64_t m = 0; m < it->second; ++m) {
      w->ref_groups[li.suppkey].Add(value);
    }
    w->ref_stage2_outputs += it->second;
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"skew_equi", "band_fluct",
                                                  "tpch_cascade"};
  return kNames;
}

bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out) {
  *out = Workload();
  out->name = name;
  if (name == "skew_equi") {
    MakeSkewEqui(seed, scale, out);
  } else if (name == "band_fluct") {
    MakeBandFluct(seed, scale, out);
  } else if (name == "tpch_cascade") {
    MakeTpchCascade(seed, scale, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
