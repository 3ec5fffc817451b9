//===- tests/PinnedThreads.h - Pin the dispatcher's thread budget -*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Delivery is pipelined whenever a dispatcher sees at least two hardware
// threads, so what a test exercises would depend on the host. Tests that
// compare serial with pipelined delivery pin the count instead.
//
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TESTS_PINNEDTHREADS_H
#define ISPROF_TESTS_PINNEDTHREADS_H

#include "instr/Dispatcher.h"

namespace isp {

/// Every EventDispatcher constructed while this is alive sees \p N
/// hardware threads: 1 means serial delivery, N >= 2 pipelined delivery
/// with up to N - 1 workers.
class PinnedThreads {
public:
  explicit PinnedThreads(unsigned N) { EventDispatcher::pinHardwareThreads(N); }
  ~PinnedThreads() { EventDispatcher::pinHardwareThreads(0); }
  PinnedThreads(const PinnedThreads &) = delete;
  PinnedThreads &operator=(const PinnedThreads &) = delete;
};

} // namespace isp

#endif // ISPROF_TESTS_PINNEDTHREADS_H
