//===- instr/SpscQueue.h - Bounded SPSC queue with backpressure -*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded single-producer/single-consumer ring, the same idea as the
/// dispatcher's pipeline ring in reusable form: one producer thread
/// pushes fixed-size items, one consumer thread drains
/// them in batches, and a full ring blocks the producer (backpressure)
/// instead of growing — so total queue memory is a hard constant no
/// matter how far the producer runs ahead.
///
/// Progress is lock-free in the common case: indices are published with
/// release stores and observed with acquire loads, so the payload cells
/// themselves need no synchronization. Only when one side would spin
/// indefinitely (ring full / ring empty) does it fall back to a
/// condition variable; the waits are timed, so a missed notification
/// costs a millisecond, never a deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_INSTR_SPSCQUEUE_H
#define ISPROF_INSTR_SPSCQUEUE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace isp {

template <typename T> class SpscQueue {
public:
  /// \p Capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(size_t Capacity) {
    size_t Cap = 2;
    while (Cap < Capacity && Cap < (size_t(1) << 31))
      Cap <<= 1;
    Mask = Cap - 1;
    Ring = std::make_unique<T[]>(Cap);
  }
  SpscQueue(const SpscQueue &) = delete;
  SpscQueue &operator=(const SpscQueue &) = delete;

  size_t capacity() const { return Mask + 1; }

  /// Producer only. Blocks while the ring is full.
  void push(const T &V) {
    uint64_t Tl = Tail.load(std::memory_order_relaxed);
    if (Tl - HeadCache > Mask)
      waitForSpace(Tl);
    Ring[Tl & Mask] = V;
    Tail.store(Tl + 1, std::memory_order_release);
    uint64_t Depth = Tl + 1 - HeadCache;
    if (Depth > PeakDepthValue)
      PeakDepthValue = Depth;
    if (ConsumerWaiting.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> Lock(WakeMutex); }
      DataReady.notify_one();
    }
  }

  /// Consumer only. Blocks until at least one item is available, then
  /// copies up to \p Max items into \p Out and returns the count.
  size_t popBatch(T *Out, size_t Max) {
    uint64_t Hd = Head.load(std::memory_order_relaxed);
    if (TailCache == Hd)
      waitForData(Hd);
    size_t N = static_cast<size_t>(TailCache - Hd);
    if (N > Max)
      N = Max;
    for (size_t I = 0; I != N; ++I)
      Out[I] = Ring[(Hd + I) & Mask];
    Head.store(Hd + N, std::memory_order_release);
    if (ProducerWaiting.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> Lock(WakeMutex); }
      SpaceReady.notify_one();
    }
    return N;
  }

  /// Producer-side high-water mark of the ring occupancy (items). An
  /// ordinary value, not an atomic: read it after the producer is done.
  uint64_t peakDepth() const { return PeakDepthValue; }

private:
  void waitForSpace(uint64_t Tl) {
    HeadCache = Head.load(std::memory_order_acquire);
    unsigned Spins = 0;
    while (Tl - HeadCache > Mask) {
      if (++Spins < SpinLimit) {
        HeadCache = Head.load(std::memory_order_acquire);
        continue;
      }
      std::unique_lock<std::mutex> Lock(WakeMutex);
      ProducerWaiting.store(true, std::memory_order_seq_cst);
      HeadCache = Head.load(std::memory_order_acquire);
      if (Tl - HeadCache > Mask)
        SpaceReady.wait_for(Lock, std::chrono::milliseconds(1));
      ProducerWaiting.store(false, std::memory_order_relaxed);
      HeadCache = Head.load(std::memory_order_acquire);
    }
  }

  void waitForData(uint64_t Hd) {
    TailCache = Tail.load(std::memory_order_acquire);
    unsigned Spins = 0;
    while (TailCache == Hd) {
      if (++Spins < SpinLimit) {
        TailCache = Tail.load(std::memory_order_acquire);
        continue;
      }
      std::unique_lock<std::mutex> Lock(WakeMutex);
      ConsumerWaiting.store(true, std::memory_order_seq_cst);
      TailCache = Tail.load(std::memory_order_acquire);
      if (TailCache == Hd)
        DataReady.wait_for(Lock, std::chrono::milliseconds(1));
      ConsumerWaiting.store(false, std::memory_order_relaxed);
      TailCache = Tail.load(std::memory_order_acquire);
    }
  }

  static constexpr unsigned SpinLimit = 1024;

  std::unique_ptr<T[]> Ring;
  size_t Mask = 1;

  /// Producer cacheline: owns Tail, caches the last-seen Head.
  alignas(64) std::atomic<uint64_t> Tail{0};
  uint64_t HeadCache = 0;
  uint64_t PeakDepthValue = 0;

  /// Consumer cacheline: owns Head, caches the last-seen Tail.
  alignas(64) std::atomic<uint64_t> Head{0};
  uint64_t TailCache = 0;

  /// Slow-path parking. The flags are checked by the fast path with a
  /// seq_cst load so a waiter that set its flag inside the lock is never
  /// missed; the timed wait bounds the damage of any residual race.
  alignas(64) std::mutex WakeMutex;
  std::condition_variable DataReady;
  std::condition_variable SpaceReady;
  std::atomic<bool> ProducerWaiting{false};
  std::atomic<bool> ConsumerWaiting{false};
};

} // namespace isp

#endif // ISPROF_INSTR_SPSCQUEUE_H
