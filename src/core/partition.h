// Partition tags and the machine grid layout.
//
// Every tuple gets a uniform 64-bit tag at the reshuffler; its partition
// under a power-of-two partition count is the tag's top bits. This gives the
// refinement property (the partition under 2n is a child of the partition
// under n) that makes Keep/Discard sets locally computable during migrations
// (paper Fig. 3) — the heart of locality-aware state relocation.
//
// GridLayout is the bijection between physical machines and (i,j) grid
// coordinates for one epoch. Relabeling across migrations is deterministic,
// so reshufflers, joiners, and the controller all derive identical layouts
// from the epoch history without coordination messages.

#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bitutil.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/mapping.h"
#include "src/localjoin/predicate.h"

namespace ajoin {

/// Partition index of a tag under `parts` partitions (power of two).
inline uint32_t PartitionOf(uint64_t tag, uint32_t parts) {
  if (parts == 1) return 0;
  return static_cast<uint32_t>(tag >> (64 - Log2Exact(parts)));
}

/// Deterministic tag for the seq-th arrival (salted per relation).
inline uint64_t TagForSeq(uint64_t seq, Rel rel) {
  return SplitMix64(seq * 2 + static_cast<uint64_t>(rel) + 0x5bd1e995UL);
}

/// Grid coordinates of a machine.
struct Coords {
  uint32_t i = 0;
  uint32_t j = 0;
  bool operator==(const Coords& o) const { return i == o.i && j == o.j; }
};

class GridLayout {
 public:
  GridLayout() = default;

  /// Identity layout: machine p <-> (p / m, p % m).
  static GridLayout Initial(Mapping map);

  /// Layout after migrating to `to` (same machine count; n, m powers of two).
  /// One halving step relabels (i,j) -> (i>>1, (j<<1)|(i&1)); k steps compose
  /// (see ARCHITECTURE.md, "Batching × the migration protocol"). The
  /// relabeling maximizes locality: S state
  /// never moves on a row-merge, R state never moves on a column-merge.
  GridLayout Relabel(Mapping to) const;

  /// Elastic expansion (n,m) -> (2n,2m), J -> 4J (paper Fig. 5). Machine p
  /// keeps coords (2i,2j); new machines J+3p+{0,1,2} take (2i,2j+1),
  /// (2i+1,2j), (2i+1,2j+1).
  GridLayout Expand() const;

  /// Elastic contraction to `to` with to.J() * 4 == J(): the inverse of one
  /// expansion step. Survivors are machines [0, J/4) on the canonical
  /// identity layout of `to` (p <-> (p / to.m, p % to.m)); machines with id
  /// >= to.J() leave the grid. `to` must fold the current dims (to.n <= n,
  /// to.m <= m), so every new partition is a union of old partitions and
  /// Keep sets stay locally computable (refinement property).
  GridLayout Contract(Mapping to) const;

  const Mapping& mapping() const { return map_; }
  uint32_t J() const { return map_.J(); }
  Coords CoordsOf(uint32_t machine) const {
    return coords_[machine];
  }
  uint32_t MachineAt(uint32_t i, uint32_t j) const {
    return machine_[i * map_.m + j];
  }

  /// Machines holding R row i (m machines, ascending j).
  std::vector<uint32_t> RowMachines(uint32_t i) const;
  /// Machines holding S column j (n machines, ascending i).
  std::vector<uint32_t> ColMachines(uint32_t j) const;

  /// Row partition of an R tuple / column partition of an S tuple.
  uint32_t PartitionFor(Rel rel, uint64_t tag) const {
    return PartitionOf(tag, rel == Rel::kR ? map_.n : map_.m);
  }

  /// Machines a tuple of `rel` with `tag` is replicated to (its row or
  /// column).
  std::vector<uint32_t> TargetsFor(Rel rel, uint64_t tag) const {
    uint32_t p = PartitionFor(rel, tag);
    return rel == Rel::kR ? RowMachines(p) : ColMachines(p);
  }

  /// True if a tuple of `rel` with `tag` belongs on `machine` under this
  /// layout.
  bool Owns(uint32_t machine, Rel rel, uint64_t tag) const {
    Coords c = coords_[machine];
    uint32_t p = PartitionFor(rel, tag);
    return rel == Rel::kR ? c.i == p : c.j == p;
  }

 private:
  Mapping map_;
  std::vector<Coords> coords_;    // by machine id
  std::vector<uint32_t> machine_; // by i * m + j
};

}  // namespace ajoin
