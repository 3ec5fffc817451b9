//===- shadow/ShardedShadow.h - Range-sharded shadow memory -----*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ShardedShadow splits a shadow memory across a power-of-two number of
/// ThreeLevelShadow shards by address range: chunk key → shard, i.e.
/// shard = (A >> OffsetBits) & (ShardCount - 1). Every 512-cell chunk
/// belongs to exactly one shard, so the range primitives still resolve
/// each chunk once per span, and each shard's chunk cache serves the
/// chunks routed to it (every access to a chunk lands on the same
/// shard, so a chunk is cached in one place only).
///
/// This is the groundwork ROADMAP names for a parallel-replay mode: the
/// global wts shadow sharded by address range, with per-shard
/// renumbering epochs (renumberNonZero bumps one epoch counter per
/// shard per pass) so a future parallel renumberer can sweep shards
/// independently. With ShardCount == 1 every operation forwards to the
/// single inner shard unchanged, and profiles are byte-identical across
/// shard counts (property-tested).
///
/// The combined view: forEachNonZero walks shards in index order (each
/// shard in its own address order — the global enumeration is not
/// address-sorted for ShardCount > 1), and the stats/accounting surface
/// (bytesAllocated, chunksAllocated, cacheHits, ...) sums over shards.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_SHADOW_SHARDEDSHADOW_H
#define ISPROF_SHADOW_SHARDEDSHADOW_H

#include "shadow/ShadowMemory.h"

#include <cstdint>
#include <vector>

namespace isp {

template <typename T> class ShardedShadow {
public:
  using ShardT = ThreeLevelShadow<T>;
  static constexpr unsigned OffsetBits = ShardT::OffsetBits;
  static constexpr size_t ChunkCells = ShardT::ChunkCells;
  static constexpr Addr MaxAddress = ShardT::MaxAddress;
  /// Upper bound on setShardCount (sanity, not tuning).
  static constexpr unsigned MaxShards = 256;

  ShardedShadow() : Shards(1), Epochs(1, 0) {}

  /// Resizes to \p N shards. \p N must be a power of two in
  /// [1, MaxShards]; returns false (leaving the shadow unchanged)
  /// otherwise. Existing contents are discarded — call before use.
  bool setShardCount(unsigned N) {
    if (N == 0 || N > MaxShards || (N & (N - 1)) != 0)
      return false;
    Shards.clear();
    Shards.resize(N);
    Epochs.assign(N, 0);
    Mask = N - 1;
    return true;
  }
  unsigned shardCount() const { return static_cast<unsigned>(Shards.size()); }

  T get(Addr A) const { return Shards[shardOf(A)].get(A); }
  void set(Addr A, T Value) { Shards[shardOf(A)].set(A, Value); }
  T &cell(Addr A) { return Shards[shardOf(A)].cell(A); }

  /// Range primitives split the span at chunk boundaries and route each
  /// chunk-sized piece to its owning shard, preserving the resolve-once-
  /// per-chunk property of the underlying shards.
  template <typename Callback>
  void forRange(Addr A, uint64_t Cells, Callback Fn) {
    if (Mask == 0) {
      Shards[0].forRange(A, Cells, Fn);
      return;
    }
    while (Cells != 0) {
      size_t Off = static_cast<size_t>(A & (ChunkCells - 1));
      size_t Span =
          static_cast<size_t>(std::min<uint64_t>(Cells, ChunkCells - Off));
      Shards[shardOf(A)].forRange(A, Span, Fn);
      A += Span;
      Cells -= Span;
    }
  }

  void fillRange(Addr A, uint64_t Cells, T Value) {
    if (Mask == 0) {
      Shards[0].fillRange(A, Cells, Value);
      return;
    }
    while (Cells != 0) {
      size_t Off = static_cast<size_t>(A & (ChunkCells - 1));
      size_t Span =
          static_cast<size_t>(std::min<uint64_t>(Cells, ChunkCells - Off));
      Shards[shardOf(A)].fillRange(A, Span, Value);
      A += Span;
      Cells -= Span;
    }
  }

  /// Combined iterate view: every non-zero cell of every shard, shard 0
  /// first (per-shard address order; not globally address-sorted when
  /// sharded — no current client depends on the global order).
  template <typename Callback> void forEachNonZero(Callback Fn) {
    for (ShardT &S : Shards)
      S.forEachNonZero(Fn);
  }

  /// A full renumbering sweep: forEachNonZero shard by shard, bumping
  /// that shard's epoch as its sweep completes. The epoch counters are
  /// the hook for a future parallel renumberer to prove every shard was
  /// swept exactly once per pass.
  template <typename Callback> void renumberNonZero(Callback Fn) {
    for (size_t I = 0; I != Shards.size(); ++I) {
      Shards[I].forEachNonZero(Fn);
      ++Epochs[I];
    }
  }

  /// Renumbering epochs completed by shard \p I.
  uint64_t shardEpoch(size_t I) const { return Epochs[I]; }
  /// Sum of all per-shard epochs (shardCount × passes when healthy).
  uint64_t totalEpochs() const {
    uint64_t Total = 0;
    for (uint64_t E : Epochs)
      Total += E;
    return Total;
  }

  //===--- Combined stats view: sums over shards ------------------------===//

  uint64_t bytesAllocated() const {
    uint64_t Total = 0;
    for (const ShardT &S : Shards)
      Total += S.bytesAllocated();
    return Total;
  }
  uint64_t fixedBytes() const {
    uint64_t Total = 0;
    for (const ShardT &S : Shards)
      Total += S.fixedBytes();
    return Total;
  }
  uint64_t totalBytes() const { return bytesAllocated() + fixedBytes(); }
  uint64_t chunksAllocated() const {
    uint64_t Total = 0;
    for (const ShardT &S : Shards)
      Total += S.chunksAllocated();
    return Total;
  }
  uint64_t cacheHits() const {
    uint64_t Total = 0;
    for (const ShardT &S : Shards)
      Total += S.cacheHits();
    return Total;
  }
  uint64_t cacheMisses() const {
    uint64_t Total = 0;
    for (const ShardT &S : Shards)
      Total += S.cacheMisses();
    return Total;
  }

  /// Clears contents and accounting of every shard; the shard count and
  /// the epoch counters (lifetime tallies, like the cache stats) stay.
  void clear() {
    for (ShardT &S : Shards)
      S.clear();
  }

  /// Shard owning address \p A (chunk key → shard).
  size_t shardOf(Addr A) const {
    return static_cast<size_t>((A >> OffsetBits) & Mask);
  }

  //===--- Shard-local access (parallel replay) -------------------------===//
  //
  // The router state (Shards base pointer, Mask) is immutable between
  // setShardCount calls, so concurrent threads may operate on DISTINCT
  // shards without locking: get/set/forRange/fillRange on addresses of
  // shard i touch only Shards[i] — including its mutable chunk cache,
  // which is why the partition must be by shard, never by address
  // within a shard. The combined views (forEachNonZero, stats)
  // and setShardCount still require exclusive access.

  /// Direct access to inner shard \p I, for callers that partition work
  /// shard-by-shard (e.g. a per-worker sweep).
  ShardT &shard(size_t I) { return Shards[I]; }
  const ShardT &shard(size_t I) const { return Shards[I]; }

private:
  std::vector<ShardT> Shards;
  std::vector<uint64_t> Epochs;
  Addr Mask = 0;
};

} // namespace isp

#endif // ISPROF_SHADOW_SHARDEDSHADOW_H
