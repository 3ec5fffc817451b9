//===- trace/Synthetic.cpp - Random valid trace generation ------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/Synthetic.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace isp;

namespace {

/// Per-thread generation state.
struct ThreadState {
  std::vector<RoutineId> CallStack;
  bool Started = false;
  bool Finished = false;
};

} // namespace

std::vector<EventRecord>
isp::generateSyntheticTrace(const SyntheticTraceOptions &Opts) {
  assert(Opts.NumThreads > 0 && Opts.NumRoutines > 0);
  Rng R(Opts.Seed);
  std::vector<EventRecord> Trace;
  Trace.reserve(Opts.NumOperations + Opts.NumThreads * 4);

  std::vector<ThreadState> Threads(Opts.NumThreads);
  // Shared pool occupies [0, SharedAddresses); thread T's private pool
  // occupies [SharedAddresses + T*PrivateAddresses, ...).
  auto pickAddress = [&](ThreadId Tid) -> Addr {
    if (Opts.SharedAddresses > 0 &&
        (Opts.PrivateAddresses == 0 || R.nextBool(Opts.SharedProbability)))
      return R.nextBelow(Opts.SharedAddresses);
    return Opts.SharedAddresses +
           static_cast<Addr>(Tid) * Opts.PrivateAddresses +
           R.nextBelow(std::max(1u, Opts.PrivateAddresses));
  };

  // Start all threads eagerly; thread 0 is its own parent by convention.
  for (ThreadId Tid = 0; Tid != Opts.NumThreads; ++Tid) {
    Threads[Tid].Started = true;
    Trace.push_back(EventRecord::threadStart(Tid, 0));
    RoutineId Root = static_cast<RoutineId>(R.nextBelow(Opts.NumRoutines));
    Threads[Tid].CallStack.push_back(Root);
    Trace.push_back(EventRecord::call(Tid, Root));
  }

  for (uint64_t Op = 0; Op != Opts.NumOperations; ++Op) {
    ThreadId Tid =
        static_cast<ThreadId>(R.nextBelow(Opts.NumThreads));
    ThreadState &TS = Threads[Tid];
    if (TS.Finished)
      continue;

    double Dice = R.nextDouble();
    double CallEdge = Opts.CallProbability;
    double ReturnEdge = CallEdge + Opts.ReturnProbability;
    double WriteEdge = ReturnEdge + Opts.WriteProbability;
    double KrEdge = WriteEdge + Opts.KernelReadProbability;
    double KwEdge = KrEdge + Opts.KernelWriteProbability;
    double BbEdge = KwEdge + Opts.BasicBlockProbability;

    if (Dice < CallEdge) {
      if (TS.CallStack.size() < Opts.MaxCallDepth) {
        RoutineId Rtn =
            static_cast<RoutineId>(R.nextBelow(Opts.NumRoutines));
        TS.CallStack.push_back(Rtn);
        Trace.push_back(EventRecord::call(Tid, Rtn));
      }
    } else if (Dice < ReturnEdge) {
      // Keep the root activation alive until the final unwind.
      if (TS.CallStack.size() > 1) {
        RoutineId Rtn = TS.CallStack.back();
        TS.CallStack.pop_back();
        Trace.push_back(EventRecord::ret(Tid, Rtn, 0));
      }
    } else if (Dice < WriteEdge) {
      Trace.push_back(EventRecord::write(Tid, pickAddress(Tid)));
    } else if (Dice < KrEdge) {
      Trace.push_back(EventRecord::kernelRead(Tid, pickAddress(Tid)));
    } else if (Dice < KwEdge) {
      Trace.push_back(EventRecord::kernelWrite(Tid, pickAddress(Tid)));
    } else if (Dice < BbEdge) {
      Trace.push_back(EventRecord::basicBlock(Tid));
    } else {
      Trace.push_back(EventRecord::read(Tid, pickAddress(Tid)));
    }
  }

  // Unwind every thread: return from all pending activations, then end.
  for (ThreadId Tid = 0; Tid != Opts.NumThreads; ++Tid) {
    ThreadState &TS = Threads[Tid];
    while (!TS.CallStack.empty()) {
      RoutineId Rtn = TS.CallStack.back();
      TS.CallStack.pop_back();
      Trace.push_back(EventRecord::ret(Tid, Rtn, 0));
    }
    TS.Finished = true;
    Trace.push_back(EventRecord::threadEnd(Tid));
  }
  return Trace;
}

std::vector<std::vector<TimedEvent>>
isp::splitByThread(const std::vector<EventRecord> &Trace) {
  std::map<ThreadId, std::vector<TimedEvent>> ByThread;
  for (size_t I = 0; I != Trace.size(); ++I)
    ByThread[Trace[I].Tid].push_back({I, Trace[I]});
  std::vector<std::vector<TimedEvent>> Result;
  Result.reserve(ByThread.size());
  for (auto &[Tid, Events] : ByThread)
    Result.push_back(std::move(Events));
  return Result;
}
