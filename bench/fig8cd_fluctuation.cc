// Fig. 8c/8d — data dynamics: the Fluct-Join equi-join (8GB-scale, J = 64)
// with the cardinality ratio |R|/|S| alternating between k and 1/k for
// k in {2,4,6,8}. To sustain the paper's oscillation through the whole run
// the two streams have equal total cardinality (the TPC-H Orders side would
// exhaust after a few phases at our scale). Adaptivity
// starts after ~1% of the input (the paper's 500K-tuple initiation point).
//
// Fig. 8c: the |R|/|S| ratio and the ILF/ILF* competitive ratio over time —
// after adaptivity initiates, the ratio must never exceed 1.25
// (Theorem 4.6). Shaded migration regions appear as 'mig?' marks.
// Fig. 8d: execution-time progress stays linear for every k (migration
// costs amortize, Lemma 4.5).

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"

using namespace ajoin;
using namespace ajoin::bench;

int main() {
  PrintHeader("Fig 8c/8d: fluctuating cardinality ratios, Fluct-Join, J=64");
  const CostModel cost = DefaultCost();
  const uint32_t machines = 64;
  const uint64_t per_side = 400000;  // 8GB-scale total at 100k rows/'GB'
  Workload w = Workload::Synthetic(per_side, per_side, 32, 32,
                                   /*key_domain=*/200000, /*zipf=*/0.0,
                                   /*seed=*/13);
  const uint64_t min_adapt = w.total_count() / 100;  // ~1% of input
  const double init_frac = 0.02;

  for (double k : {2.0, 4.0, 6.0, 8.0}) {
    ArrivalPolicy policy;
    policy.kind = ArrivalPolicy::Kind::kFluctuating;
    policy.fluct_k = k;
    RunResult r = RunOne(w, machines, OpKind::kDynamic, cost, policy,
                         /*snapshots=*/200, min_adapt);
    std::printf("\nk = %.0f   (migrations: %llu)\n", k,
                static_cast<unsigned long long>(r.migrations));
    std::printf("%-8s %10s %12s %12s %8s\n", "pct", "|R|/|S|", "ILF/ILF*",
                "time(s)", "mig?");
    for (size_t i = 19; i < r.series.size(); i += 20) {
      const ProgressPoint& p = r.series[i];
      std::printf("%7.0f%% %10.3f %12.3f %12.1f %8s\n", p.fraction * 100,
                  p.rs_ratio, p.ilf_ratio, p.exec_seconds,
                  p.migrating ? "yes" : "");
    }
    double max_ratio = 0;
    for (const ProgressPoint& p : r.series) {
      if (p.fraction < init_frac) continue;  // before InitiateAdaptivity
      max_ratio = std::max(max_ratio, p.ilf_ratio);
    }
    std::printf("max ILF/ILF* after adaptivity initiation: %.3f (bound 1.25)\n",
                max_ratio);
    std::printf("final execution time: %.1f s\n", r.exec_seconds);
  }
  std::printf(
      "\nExpected shape: |R|/|S| oscillates between ~k and ~1/k; ILF/ILF*\n"
      "<= 1.25 after initiation (Theorem 4.6); execution time grows\n"
      "linearly for every k (amortized migration cost, Lemma 4.5).\n");
  return 0;
}
