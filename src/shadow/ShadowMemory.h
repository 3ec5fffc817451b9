//===- shadow/ShadowMemory.h - Three-level shadow memory --------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shadow memories mapping guest addresses to per-location analysis state
/// (timestamps for the profilers, validity bits for the memory checker,
/// access histories for the race detector).
///
/// ThreeLevelShadow reproduces the layout of the paper's Section 5: a
/// primary table of 2048 entries indexes secondary tables, each of which
/// indexes 16K lazily-allocated chunks; only chunks covering addresses a
/// thread actually touched are materialized, which is what keeps the
/// per-thread shadow cost sublinear in practice (Figure 14's space curve).
/// DenseShadow is the hash-map baseline used by the ablation benchmark.
///
/// Both shadows expose the same fast-path surface:
///  - (ThreeLevelShadow) a 16-slot direct-mapped chunk cache indexed by a
///    multiplicative hash of the chunk key: an access to any recently
///    used 512-cell chunk skips the radix walk. A guest interleaves
///    globals, heap and per-thread stack chunks, so a one-entry
///    last-chunk cache missed ~45% of lookups; with 16 slots kdtree and
///    dbserver miss under 3%. The hash matters: indexing by the low key
///    bits puts the globals chunk (key 0) and every stack chunk
///    (key 2^15 + 256 t) in one slot. A hit is always inlined into the
///    caller; the radix walk behind a miss is cold and out of line;
///  - range primitives forRange/fillRange that resolve each chunk once
///    per 512-cell span instead of once per cell, which is how the
///    profilers process multi-cell Read/Write events.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_SHADOW_SHADOWMEMORY_H
#define ISPROF_SHADOW_SHADOWMEMORY_H

#include "obs/Obs.h"
#include "support/Compiler.h"
#include "trace/Event.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace isp {

/// Three-level radix shadow memory over guest cell addresses.
///
/// Address bits: [ L1: 8 | L2: 10 | offset: 9 ], covering 2^27 cells —
/// the guest address space of vm/Bytecode.h. The structure follows the
/// paper's three-level design; the table and chunk sizes are scaled to
/// this project's laptop-sized guests (the paper shadows multi-GB
/// address spaces with 64KB chunks; we shadow multi-MB guests with
/// 512-cell chunks) so that space overhead remains proportional to
/// memory actually touched. Unaccessed locations implicitly hold T{}
/// (all profilers use 0 as the "never" timestamp, so lazy chunks need no
/// initialization pass beyond zero-fill).
template <typename T> class ThreeLevelShadow {
public:
  static constexpr unsigned OffsetBits = 9;
  static constexpr unsigned L2Bits = 10;
  static constexpr unsigned L1Bits = 8;
  static constexpr size_t ChunkCells = size_t(1) << OffsetBits;
  static constexpr size_t L2Entries = size_t(1) << L2Bits;
  static constexpr size_t L1Entries = size_t(1) << L1Bits;
  static constexpr Addr MaxAddress = MaxGuestAddress;
  static_assert(MaxAddress == (Addr(1) << (OffsetBits + L2Bits + L1Bits)) - 1,
                "the radix levels must cover the guest address space");

  ThreeLevelShadow() : Primary(L1Entries) {}

  /// Returns the value at \p A without allocating (T{} if untouched).
  ISP_ALWAYS_INLINE T get(Addr A) const {
    assert(A <= MaxAddress && "guest address out of shadowable range");
    const CacheEntry &E = cacheEntry(chunkKey(A));
    if (ISP_LIKELY(E.Key == chunkKey(A))) {
      ISP_STATS(++CacheHits);
      return E.C->Cells[offset(A)];
    }
    return getMiss(A);
  }

  /// Stores \p Value at \p A, materializing the chunk if needed.
  void set(Addr A, T Value) { cell(A) = Value; }

  /// Returns a mutable reference, materializing the chunk if needed.
  T &cell(Addr A) {
    assert(A <= MaxAddress && "guest address out of shadowable range");
    return resolveChunk(A)->Cells[offset(A)];
  }

  /// Invokes \p Fn(Addr, T&) for each of the \p Cells cells starting at
  /// \p A, materializing chunks as needed. Each chunk on the span is
  /// resolved exactly once — the multi-cell event fast path.
  template <typename Callback>
  ISP_ALWAYS_INLINE void forRange(Addr A, uint64_t Cells, Callback Fn) {
    assert(Cells == 0 || A + Cells - 1 <= MaxAddress);
    while (Cells != 0) {
      size_t Off = offset(A);
      size_t Span = static_cast<size_t>(
          std::min<uint64_t>(Cells, ChunkCells - Off));
      Chunk *C = resolveChunk(A);
      for (size_t I = 0; I != Span; ++I)
        Fn(A + I, C->Cells[Off + I]);
      A += Span;
      Cells -= Span;
    }
  }

  /// Stores \p Value into each of the \p Cells cells starting at \p A,
  /// resolving each chunk on the span once.
  ISP_ALWAYS_INLINE void fillRange(Addr A, uint64_t Cells, T Value) {
    assert(Cells == 0 || A + Cells - 1 <= MaxAddress);
    while (Cells != 0) {
      size_t Off = offset(A);
      size_t Span = static_cast<size_t>(
          std::min<uint64_t>(Cells, ChunkCells - Off));
      Chunk *C = resolveChunk(A);
      std::fill_n(C->Cells + Off, Span, Value);
      A += Span;
      Cells -= Span;
    }
  }

  /// Invokes \p Fn(Addr, T&) for every cell of every materialized chunk
  /// whose value differs from T{}. Used by the timestamp renumbering pass,
  /// which must rewrite all live timestamps.
  template <typename Callback> void forEachNonZero(Callback Fn) {
    for (size_t I1 = 0; I1 != L1Entries; ++I1) {
      Secondary *S = Primary[I1].get();
      if (!S)
        continue;
      for (size_t I2 = 0; I2 != L2Entries; ++I2) {
        Chunk *C = S->Chunks[I2].get();
        if (!C)
          continue;
        Addr Base = (Addr(I1) << (L2Bits + OffsetBits)) |
                    (Addr(I2) << OffsetBits);
        for (size_t Off = 0; Off != ChunkCells; ++Off)
          if (!(C->Cells[Off] == T{}))
            Fn(Base | Off, C->Cells[Off]);
      }
    }
  }

  /// Bytes held by secondary tables and chunks (excludes the fixed-size
  /// primary table, reported separately by fixedBytes()).
  uint64_t bytesAllocated() const { return BytesAllocated; }
  uint64_t fixedBytes() const { return L1Entries * sizeof(void *); }
  uint64_t totalBytes() const { return BytesAllocated + fixedBytes(); }

  /// Observability tallies, cumulative over the shadow's lifetime (not
  /// reset by clear()). Chunk allocations are counted unconditionally —
  /// the path already allocates, so the bump is noise. Cache hit/miss
  /// tallies sit on the per-access fast path and are bumped only while
  /// stats collection is on (ISP_STATS), keeping the default
  /// configuration's lookup untouched; range primitives count one
  /// hit/miss per chunk span, not per cell.
  uint64_t chunksAllocated() const { return ChunksAllocated; }
  uint64_t cacheHits() const { return CacheHits; }
  uint64_t cacheMisses() const { return CacheMisses; }
  /// The chunk-cache slot address \p A maps to (tests build colliding
  /// addresses from it).
  static size_t cacheSlotOf(Addr A) { return slotOf(chunkKey(A)); }

  void clear() {
    for (auto &S : Primary)
      S.reset();
    BytesAllocated = 0;
    for (CacheEntry &E : Cache)
      E = CacheEntry();
  }

private:
  struct Chunk {
    T Cells[ChunkCells] = {};
  };
  struct Secondary {
    std::unique_ptr<Chunk> Chunks[L2Entries];
  };

  static size_t l1Index(Addr A) { return A >> (L2Bits + OffsetBits); }
  static size_t l2Index(Addr A) { return (A >> OffsetBits) & (L2Entries - 1); }
  static size_t offset(Addr A) { return A & (ChunkCells - 1); }
  /// Identifies the chunk containing \p A; always < NoKey for valid
  /// addresses, so an empty cache slot never matches.
  static Addr chunkKey(Addr A) { return A >> OffsetBits; }
  static constexpr Addr NoKey = ~Addr(0);

  /// One chunk-cache slot. Chunks live until clear(), so the raw
  /// pointer stays valid as long as the key matches.
  struct CacheEntry {
    Addr Key = NoKey;
    Chunk *C = nullptr;
  };
  static constexpr unsigned CacheSlotBits = 4;
  /// The slot for chunk \p Key: the top bits of a Fibonacci hash, so
  /// keys that differ only in high bits (globals, heap, each thread's
  /// stack) spread over the slots.
  static size_t slotOf(Addr Key) {
    return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >>
                               (64 - CacheSlotBits));
  }
  CacheEntry &cacheEntry(Addr Key) const { return Cache[slotOf(Key)]; }

  /// Cache-aware chunk resolution for cell() and the range primitives.
  /// Only the cache hit is inlined; a miss goes to the cold materialize.
  ISP_ALWAYS_INLINE Chunk *resolveChunk(Addr A) {
    const CacheEntry &E = cacheEntry(chunkKey(A));
    if (ISP_LIKELY(E.Key == chunkKey(A))) {
      ISP_STATS(++CacheHits);
      return E.C;
    }
    return materialize(A);
  }

  /// get()'s chunk-cache miss: counts it, then walks the radix levels
  /// without allocating and refreshes the cache if the chunk exists.
  ISP_COLD T getMiss(Addr A) const;
  /// resolveChunk()'s chunk-cache miss: counts it, then walks the radix
  /// levels, materializing the secondary table and chunk as needed, and
  /// refreshes the cache.
  ISP_COLD Chunk *materialize(Addr A);

  std::vector<std::unique_ptr<Secondary>> Primary;
  uint64_t BytesAllocated = 0;
  uint64_t ChunksAllocated = 0;
  /// Mutable: the read-only get() path tallies hits/misses too.
  mutable uint64_t CacheHits = 0;
  mutable uint64_t CacheMisses = 0;
  /// The chunk cache. Mutable so the read-only get() path can also
  /// profit from locality.
  mutable CacheEntry Cache[size_t(1) << CacheSlotBits];
};

template <typename T> T ThreeLevelShadow<T>::getMiss(Addr A) const {
  ISP_STATS(++CacheMisses);
  const Secondary *S = Primary[l1Index(A)].get();
  if (!S)
    return T{};
  Chunk *C = S->Chunks[l2Index(A)].get();
  if (!C)
    return T{};
  cacheEntry(chunkKey(A)) = {chunkKey(A), C};
  return C->Cells[offset(A)];
}

template <typename T>
typename ThreeLevelShadow<T>::Chunk *ThreeLevelShadow<T>::materialize(Addr A) {
  ISP_STATS(++CacheMisses);
  std::unique_ptr<Secondary> &S = Primary[l1Index(A)];
  if (!S) {
    S = std::make_unique<Secondary>();
    BytesAllocated += sizeof(Secondary);
  }
  std::unique_ptr<Chunk> &C = S->Chunks[l2Index(A)];
  if (!C) {
    C = std::make_unique<Chunk>();
    BytesAllocated += sizeof(Chunk);
    ++ChunksAllocated;
  }
  cacheEntry(chunkKey(A)) = {chunkKey(A), C.get()};
  return C.get();
}

/// Chunk and chunk-cache tallies summed over shadows: a profiler folds
/// each ended thread's ts shadow in before releasing it, and adds the
/// live ones when it publishes.
struct ShadowTallies {
  uint64_t ChunksAllocated = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;

  template <typename ShadowT> void add(const ShadowT &S) {
    ChunksAllocated += S.chunksAllocated();
    CacheHits += S.cacheHits();
    CacheMisses += S.cacheMisses();
  }

  /// Adds the three to the stats registry as \p Prefix followed by
  /// `.chunks_allocated`, `.cache_hits` and `.cache_misses`.
  void publish(const std::string &Prefix) const {
    obs::Registry &R = obs::Registry::get();
    R.counter(Prefix + ".chunks_allocated").add(ChunksAllocated);
    R.counter(Prefix + ".cache_hits").add(CacheHits);
    R.counter(Prefix + ".cache_misses").add(CacheMisses);
  }
};

/// Hash-map shadow memory: the no-structure baseline for the ablation
/// benchmark (same interface as ThreeLevelShadow, including the range
/// primitives, so the ablation compares layouts, not loop shapes).
template <typename T> class DenseShadow {
public:
  T get(Addr A) const {
    auto It = Map.find(A);
    return It == Map.end() ? T{} : It->second;
  }

  void set(Addr A, T Value) { Map[A] = Value; }

  T &cell(Addr A) { return Map[A]; }

  template <typename Callback>
  void forRange(Addr A, uint64_t Cells, Callback Fn) {
    for (uint64_t I = 0; I != Cells; ++I)
      Fn(A + I, Map[A + I]);
  }

  void fillRange(Addr A, uint64_t Cells, T Value) {
    for (uint64_t I = 0; I != Cells; ++I)
      Map[A + I] = Value;
  }

  template <typename Callback> void forEachNonZero(Callback Fn) {
    for (auto &[A, Value] : Map)
      if (!(Value == T{}))
        Fn(A, Value);
  }

  /// Observability parity with ThreeLevelShadow; the hash map has no
  /// chunk cache, so the tallies are identically zero.
  uint64_t chunksAllocated() const { return 0; }
  uint64_t cacheHits() const { return 0; }
  uint64_t cacheMisses() const { return 0; }

  uint64_t bytesAllocated() const {
    // Approximation: per-node overhead of the hash table (key + value +
    // bucket pointer + node header) plus the bucket array. The bucket
    // array is accounted at the size the container actually keeps, which
    // is at least size() / max_load_factor() buckets — never less, so
    // load-factor headroom is consistently included. An empty shadow
    // accounts zero even if a bucket array lingers, giving clear() the
    // same resets-accounting guarantee ThreeLevelShadow has.
    if (Map.empty())
      return 0;
    uint64_t BucketCount = static_cast<uint64_t>(std::max<size_t>(
        Map.bucket_count(),
        static_cast<size_t>(static_cast<double>(Map.size()) /
                            Map.max_load_factor())));
    return Map.size() * (sizeof(Addr) + sizeof(T) + 2 * sizeof(void *)) +
           BucketCount * sizeof(void *);
  }
  uint64_t totalBytes() const { return bytesAllocated(); }

  void clear() { Map.clear(); }

private:
  std::unordered_map<Addr, T> Map;
};

} // namespace isp

#endif // ISPROF_SHADOW_SHADOWMEMORY_H
