//===- tests/ShadowTest.cpp - Shadow memory unit tests -------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "shadow/ShadowMemory.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>

using namespace isp;

namespace {

TEST(ThreeLevelShadow, DefaultsToZero) {
  ThreeLevelShadow<uint64_t> Shadow;
  EXPECT_EQ(Shadow.get(0), 0u);
  EXPECT_EQ(Shadow.get(123456789), 0u);
  EXPECT_EQ(Shadow.bytesAllocated(), 0u);
}

TEST(ThreeLevelShadow, SetGetAcrossChunkBoundaries) {
  ThreeLevelShadow<uint64_t> Shadow;
  const Addr Boundary = ThreeLevelShadow<uint64_t>::ChunkCells;
  Shadow.set(Boundary - 1, 11);
  Shadow.set(Boundary, 22);
  Shadow.set(Boundary * 5 + 3, 33);
  EXPECT_EQ(Shadow.get(Boundary - 1), 11u);
  EXPECT_EQ(Shadow.get(Boundary), 22u);
  EXPECT_EQ(Shadow.get(Boundary * 5 + 3), 33u);
  EXPECT_EQ(Shadow.get(Boundary + 1), 0u);
}

TEST(ThreeLevelShadow, SparseAllocationIsLazy) {
  ThreeLevelShadow<uint64_t> Shadow;
  // Touch two far-apart addresses: only two chunks (plus secondaries)
  // must be materialized.
  Shadow.set(0, 1);
  Shadow.set(Addr(1) << 26, 2);
  uint64_t TwoChunks = Shadow.bytesAllocated();
  Shadow.set(1, 3); // same chunk as address 0
  EXPECT_EQ(Shadow.bytesAllocated(), TwoChunks);
  Shadow.set(Addr(1) << 25, 4); // new chunk
  EXPECT_GT(Shadow.bytesAllocated(), TwoChunks);
}

TEST(ThreeLevelShadow, ForEachNonZeroVisitsExactlyLiveCells) {
  ThreeLevelShadow<uint64_t> Shadow;
  std::map<Addr, uint64_t> Expected = {
      {7, 1}, {8192, 2}, {100000, 3}, {(Addr(1) << 25) + 17, 4}};
  for (auto &[A, V] : Expected)
    Shadow.set(A, V);
  Shadow.set(55, 9);
  Shadow.set(55, 0); // zeroed again: must not be visited

  std::map<Addr, uint64_t> Seen;
  Shadow.forEachNonZero([&](Addr A, uint64_t &V) { Seen[A] = V; });
  EXPECT_EQ(Seen, Expected);
}

TEST(ThreeLevelShadow, ForEachNonZeroAllowsRewriting) {
  ThreeLevelShadow<uint64_t> Shadow;
  for (Addr A = 0; A != 100; ++A)
    Shadow.set(A * 1000, A + 1);
  Shadow.forEachNonZero([&](Addr A, uint64_t &V) { V *= 2; });
  for (Addr A = 0; A != 100; ++A)
    EXPECT_EQ(Shadow.get(A * 1000), (A + 1) * 2);
}

TEST(ThreeLevelShadow, ClearReleasesEverything) {
  ThreeLevelShadow<uint32_t> Shadow;
  Shadow.set(42, 7);
  Shadow.clear();
  EXPECT_EQ(Shadow.get(42), 0u);
  EXPECT_EQ(Shadow.bytesAllocated(), 0u);
}

// Drives one shadow through the range primitives and a second instance
// of the same type cell-by-cell, against a std::map reference model.
// Range starts sit just before chunk / secondary-table / primary-table
// strides so spans cross every radix boundary, and the alternating
// bases keep evicting the one-entry chunk cache.
template <typename ShadowT> void checkRangeOpsMatchCellOps() {
  ShadowT RangeShadow;
  ShadowT CellShadow;
  std::map<Addr, uint64_t> Reference;
  Rng R(29);

  constexpr Addr Chunk = ThreeLevelShadow<uint64_t>::ChunkCells;
  constexpr Addr L2Span = Chunk << ThreeLevelShadow<uint64_t>::L2Bits;
  const Addr Bases[] = {0,           Chunk - 3,     5 * Chunk - 1,
                        L2Span - 7,  3 * L2Span - 2, (Addr(1) << 25) - 5};

  for (int Step = 0; Step != 400; ++Step) {
    Addr A = Bases[R.nextBelow(std::size(Bases))] + R.nextBelow(16);
    uint64_t Cells = 1 + R.nextBelow(3 * Chunk);
    if (R.nextBool(0.5)) {
      uint64_t V = R.next() | 1;
      RangeShadow.fillRange(A, Cells, V);
      for (uint64_t I = 0; I != Cells; ++I) {
        CellShadow.set(A + I, V);
        Reference[A + I] = V;
      }
    } else {
      uint64_t RangeMix = 0;
      RangeShadow.forRange(A, Cells, [&](Addr At, uint64_t &V) {
        RangeMix ^= V + At;
        V = At + 1; // mutate through the range-provided reference
      });
      uint64_t CellMix = 0;
      for (uint64_t I = 0; I != Cells; ++I) {
        CellMix ^= CellShadow.get(A + I) + (A + I);
        CellShadow.set(A + I, A + I + 1);
        Reference[A + I] = A + I + 1;
      }
      EXPECT_EQ(RangeMix, CellMix) << "step " << Step;
    }
  }

  std::map<Addr, uint64_t> FromRange, FromCell, NonZeroRef;
  RangeShadow.forEachNonZero([&](Addr A, uint64_t &V) { FromRange[A] = V; });
  CellShadow.forEachNonZero([&](Addr A, uint64_t &V) { FromCell[A] = V; });
  for (auto &[A, V] : Reference)
    if (V)
      NonZeroRef[A] = V;
  EXPECT_EQ(FromRange, FromCell);
  EXPECT_EQ(FromRange, NonZeroRef);
}

TEST(ShadowProperty, ThreeLevelRangeOpsMatchCellOps) {
  checkRangeOpsMatchCellOps<ThreeLevelShadow<uint64_t>>();
}

TEST(ShadowProperty, DenseRangeOpsMatchCellOps) {
  checkRangeOpsMatchCellOps<DenseShadow<uint64_t>>();
}

TEST(ThreeLevelShadow, ClearInvalidatesChunkCache) {
  ThreeLevelShadow<uint64_t> Shadow;
  Shadow.set(123, 5);
  EXPECT_EQ(Shadow.get(123), 5u); // cache now points at the chunk
  Shadow.clear();
  EXPECT_EQ(Shadow.get(123), 0u); // stale cached chunk must not survive
  EXPECT_EQ(Shadow.bytesAllocated(), 0u);
  Shadow.set(123, 6);
  EXPECT_EQ(Shadow.get(123), 6u);
}

TEST(ShadowProperty, CollidingChunksMatchDenseAcrossClear) {
  // Chunks that share one cache slot evict each other on every switch;
  // every access must still see the right chunk, before and after
  // clear() empties the cache.
  using Shadow = ThreeLevelShadow<uint64_t>;
  std::vector<Addr> Bases;
  for (Addr Key = 0; Bases.size() != 12; ++Key)
    if (Shadow::cacheSlotOf(Key * Shadow::ChunkCells) ==
        Shadow::cacheSlotOf(0))
      Bases.push_back(Key * Shadow::ChunkCells);
  ASSERT_LE(Bases.back(), Shadow::MaxAddress);

  Shadow Three;
  DenseShadow<uint64_t> Dense;
  Rng R(29);
  for (int Round = 0; Round != 3; ++Round) {
    for (int I = 0; I != 6000; ++I) {
      Addr A = Bases[R.nextBelow(Bases.size())] +
               R.nextBelow(Shadow::ChunkCells);
      switch (R.nextBelow(4)) {
      case 0: {
        uint64_t V = R.next() | 1;
        Three.set(A, V);
        Dense.set(A, V);
        break;
      }
      case 1:
        ++Three.cell(A);
        ++Dense.cell(A);
        break;
      case 2: {
        uint64_t Cells = 1 + R.nextBelow(2 * Shadow::ChunkCells);
        if (A + Cells - 1 > Shadow::MaxAddress)
          break;
        uint64_t V = R.next() | 1;
        Three.fillRange(A, Cells, V);
        Dense.fillRange(A, Cells, V);
        break;
      }
      default:
        ASSERT_EQ(Three.get(A), Dense.get(A)) << "round " << Round;
      }
    }
    for (Addr Base : Bases)
      for (Addr Off = 0; Off < Shadow::ChunkCells; Off += 37)
        ASSERT_EQ(Three.get(Base + Off), Dense.get(Base + Off));
    Three.clear();
    Dense.clear();
  }
}

TEST(ThreeLevelShadow, ChunkCacheHoldsInterleavedRegions) {
  // A guest thread alternates between globals, the heap and its stack;
  // once each chunk is cached, the alternation must not miss again.
  using Shadow = ThreeLevelShadow<uint64_t>;
  const Addr Regions[] = {16, Addr(1) << 22, (Addr(1) << 24) + (Addr(3) << 17)};
  std::set<size_t> Slots;
  for (Addr A : Regions)
    Slots.insert(Shadow::cacheSlotOf(A));
  ASSERT_EQ(Slots.size(), 3u) << "the three regions must not collide";
  obs::setStatsEnabled(true);
  Shadow S;
  for (int I = 0; I != 1000; ++I)
    for (Addr A : Regions)
      ++S.cell(A + I % 64);
  obs::setStatsEnabled(false);
  EXPECT_EQ(S.cacheMisses(), 3u);
  EXPECT_EQ(S.cacheHits(), 2997u);
}

TEST(DenseShadow, ClearResetsAccounting) {
  DenseShadow<uint64_t> Dense;
  EXPECT_EQ(Dense.bytesAllocated(), 0u);
  for (Addr A = 0; A != 5000; ++A)
    Dense.set(A * 3, 1);
  EXPECT_GT(Dense.bytesAllocated(), 0u);
  Dense.clear();
  EXPECT_EQ(Dense.bytesAllocated(), 0u);
  EXPECT_EQ(Dense.get(3), 0u);
  Dense.set(7, 9);
  EXPECT_EQ(Dense.get(7), 9u);
  EXPECT_GT(Dense.bytesAllocated(), 0u);
}

TEST(DenseShadow, BytesAllocatedIncludesLoadFactorHeadroom) {
  DenseShadow<uint64_t> Dense;
  for (Addr A = 1; A != 1002; ++A)
    Dense.set(A, 1);
  // The bucket array is accounted at no less than size() /
  // max_load_factor() slots (the default load factor is 1.0), so the
  // footprint is bounded below by per-node bytes plus one bucket slot
  // per entry.
  uint64_t PerNode = sizeof(Addr) + sizeof(uint64_t) + 2 * sizeof(void *);
  EXPECT_GE(Dense.bytesAllocated(), 1001 * (PerNode + sizeof(void *)));
}

TEST(DenseShadow, MatchesThreeLevelOnRandomWorkload) {
  ThreeLevelShadow<uint64_t> Three;
  DenseShadow<uint64_t> Dense;
  Rng R(17);
  for (int I = 0; I != 20000; ++I) {
    Addr A = R.nextBelow(1 << 22);
    if (R.nextBool(0.5)) {
      uint64_t V = R.next() | 1;
      Three.set(A, V);
      Dense.set(A, V);
    } else {
      EXPECT_EQ(Three.get(A), Dense.get(A));
    }
  }
}

TEST(DenseShadow, FootprintGrowsWithPopulation) {
  DenseShadow<uint64_t> Dense;
  uint64_t Empty = Dense.bytesAllocated();
  for (Addr A = 0; A != 10000; ++A)
    Dense.set(A * 7, A + 1);
  EXPECT_GT(Dense.bytesAllocated(), Empty + 10000 * sizeof(uint64_t));
}

TEST(ShadowSpace, ThreeLevelWinsOnClusteredAddresses) {
  // The paper's design point: threads touch clustered regions, so chunked
  // tables cost far less than per-cell hash nodes.
  ThreeLevelShadow<uint64_t> Three;
  DenseShadow<uint64_t> Dense;
  for (Addr A = 0; A != 200000; ++A) {
    Three.set(A, A + 1);
    Dense.set(A, A + 1);
  }
  EXPECT_LT(Three.totalBytes(), Dense.totalBytes());
}

} // namespace
