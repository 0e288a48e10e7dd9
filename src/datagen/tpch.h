// TPC-H-like data generation with Zipf-skewed foreign keys.
//
// The paper evaluates on TPC-H databases generated with the
// Chaudhuri/Narasayya skew generator; the degree of skew is the Zipf
// parameter z in {0, 0.25, 0.5, 0.75, 1.0} (settings Z0..Z4). This module
// generates the relations (Region, Nation, Supplier, Orders, Lineitem) with
// the columns the paper's queries touch. Dataset size is expressed in "GB"
// with a configurable rows_per_gb scale (see ARCHITECTURE.md, "Benchmarks").

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/tuple/row.h"
#include "src/tuple/schema.h"

namespace ajoin {

/// Zipf skew settings from the paper.
inline double ZipfZForSetting(int setting) {
  static const double kZ[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  return kZ[setting];
}

struct TpchConfig {
  /// Dataset size in "GB" (paper's unit).
  double gb = 1.0;
  /// Lineitem rows per GB. TPC-H has ~6M; default scales down 60x so the
  /// paper's 10GB setting becomes 1M lineitem rows.
  uint64_t lineitem_rows_per_gb = 100000;
  /// Zipf skew z applied to foreign keys (0 = uniform).
  double zipf_z = 0.0;
  uint64_t seed = 42;

  uint64_t NumLineitem() const {
    return static_cast<uint64_t>(gb * static_cast<double>(lineitem_rows_per_gb));
  }
  uint64_t NumOrders() const { return NumLineitem() / 4 + 1; }
  uint64_t NumSuppliers() const { return NumLineitem() / 600 + 1; }
};

/// Column indexes (schema order) for generated rows.
struct LineitemCols {
  static constexpr int kOrderKey = 0;
  static constexpr int kSuppKey = 1;
  static constexpr int kQuantity = 2;
  static constexpr int kShipDate = 3;   // days since epoch start, [0, 2525]
  static constexpr int kShipMode = 4;   // 0..6, 0 == TRUCK
  static constexpr int kShipInstruct = 5;  // 0..3, 0 == NONE
  static constexpr int kExtendedPrice = 6;
};

struct OrdersCols {
  static constexpr int kOrderKey = 0;
  static constexpr int kCustKey = 1;
  static constexpr int kShipPriority = 2;  // 0..4; 0 == 1-URGENT, 4 == 5-LOW
  static constexpr int kOrderDate = 3;
};

struct SupplierCols {
  static constexpr int kSuppKey = 0;
  static constexpr int kNationKey = 1;
  static constexpr int kAcctBal = 2;
};

struct NationCols {
  static constexpr int kNationKey = 0;
  static constexpr int kRegionKey = 1;
};

/// Domain constants.
constexpr int64_t kShipDateDays = 2526;  // 1992-01-01 .. 1998-12-01
constexpr int kNumShipModes = 7;
constexpr int kNumShipInstructs = 4;
constexpr int kNumShipPriorities = 5;
constexpr int kNumNations = 25;
constexpr int kNumRegions = 5;

Schema LineitemSchema();
Schema OrdersSchema();
Schema SupplierSchema();
Schema NationSchema();

/// Allocation-free views used by the slim (key-only) generation paths.
struct LineitemLite {
  int64_t orderkey;
  int64_t suppkey;
  int64_t quantity;
  int64_t shipdate;
  int64_t shipmode;
  int64_t shipinstruct;
};

struct OrdersLite {
  int64_t orderkey;
  int64_t shippriority;
};

/// Streaming row generator for one relation; deterministic given the config
/// and the row index (random access safe).
class TpchGen {
 public:
  explicit TpchGen(const TpchConfig& config);

  /// i-th lineitem row (i in [0, NumLineitem)).
  Row Lineitem(uint64_t i);
  /// Allocation-free variant; draws the same values as Lineitem(i).
  LineitemLite LineitemFast(uint64_t i);
  /// i-th orders row.
  Row Orders(uint64_t i);
  OrdersLite OrdersFast(uint64_t i);
  /// i-th supplier row.
  Row Supplier(uint64_t i);
  /// Nation key of supplier i (same draw as Supplier(i)).
  int64_t SupplierNation(uint64_t i) const;
  /// i-th nation row (i in [0, 25)).
  Row Nation(uint64_t i) const;

  const TpchConfig& config() const { return config_; }

 private:
  TpchConfig config_;
  ZipfSampler order_fk_;  // l_orderkey ~ Zipf over [1, NumOrders]
  ZipfSampler supp_fk_;   // l_suppkey  ~ Zipf over [1, NumSuppliers]
};

}  // namespace ajoin
