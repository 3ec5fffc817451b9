//===- vm/Machine.h - Guest interpreter and scheduler -----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented virtual machine: executes compiled guest programs
/// with multiple guest threads under a *serializing* fair round-robin
/// scheduler (the same execution model Valgrind imposes on traced
/// multithreaded programs, Section 5), emitting the full event stream —
/// calls/returns carrying the thread's basic-block counts, every
/// guest-memory access, kernel-mediated I/O, synchronization, thread
/// lifecycle — to an
/// EventDispatcher. With no dispatcher attached the VM is the "native"
/// baseline the overhead benchmarks compare against.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_VM_MACHINE_H
#define ISPROF_VM_MACHINE_H

#include "instr/Dispatcher.h"
#include "support/Random.h"
#include "vm/Bytecode.h"
#include "vm/Device.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace isp {

struct MachineOptions {
  /// Scheduling quantum in bytecode instructions. Smaller slices
  /// interleave threads more finely (more thread switches in the trace).
  uint64_t SliceLength = 150;
  /// Safety valve against runaway guest programs.
  uint64_t MaxInstructions = uint64_t(1) << 33;
  /// Seed for the guest rand() builtin and device streams.
  uint64_t Seed = 42;
};

struct RunStats {
  uint64_t Instructions = 0;
  uint64_t BasicBlocks = 0;
  uint64_t MemReads = 0;
  uint64_t MemWrites = 0;
  uint64_t ThreadsSpawned = 0;
  uint64_t ThreadSwitches = 0;
  uint64_t HeapCellsAllocated = 0;
  /// Guest footprint in bytes (globals + heap + stacks actually touched):
  /// the "native" space baseline of the overhead comparisons.
  uint64_t GuestMemoryBytes = 0;
  /// Optimizer-marked quiet accesses whose event was actually skipped
  /// (the suppression win), vs. quiet marks *not* honored because a
  /// scheduler switch had interrupted the straight-line window (the
  /// WindowInterrupted guard firing). Both count only instrumented
  /// runs; native runs emit no events either way.
  uint64_t QuietEventsSuppressed = 0;
  uint64_t QuietWindowAborts = 0;
  /// Subset of QuietEventsSuppressed from LoadIndirect/StoreIndirect —
  /// the alias-analysis-driven marks (analysis layer, PR: static
  /// analysis) actually paying off at runtime.
  uint64_t QuietIndirectSuppressed = 0;
};

struct RunResult {
  bool Ok = false;
  std::string Error;
  int64_t ExitCode = 0;
  std::string Output;
  RunStats Stats;
};

class Machine {
public:
  /// \p Events may be null (uninstrumented run).
  Machine(const Program &Prog, EventDispatcher *Events,
          MachineOptions Opts = MachineOptions());

  /// Runs the program to completion (all threads ended) and returns the
  /// result. Call once per Machine.
  RunResult run();

  /// The simulated external world (preload test data before run()).
  ExternalDevice &device() { return Device; }

private:
  enum class ThreadStateKind : uint8_t {
    Runnable,
    BlockedSem,
    BlockedJoin,
    Finished
  };

  struct Frame {
    const Function *Fn = nullptr;
    size_t Pc = 0;
    Addr FrameBase = 0;
    /// Operand-stack height at entry (restored on return).
    size_t OperandBase = 0;
    /// Thread stack pointer to restore on return (pops allocas).
    Addr SavedSp = 0;
  };

  struct ThreadCtx {
    ThreadId Id = 0;
    ThreadId Parent = 0;
    ThreadStateKind State = ThreadStateKind::Runnable;
    std::vector<Frame> Frames;
    std::vector<int64_t> Operands;
    std::vector<int64_t> StackMemory;
    Addr StackBase = 0;
    Addr Sp = 0;
    /// Blocks run since the thread's last Call, Return or ThreadEnd;
    /// the next one carries them to the tools (trace/Event.h) and
    /// zeroes this.
    uint64_t Blocks = 0;
    /// Deferred start: the entry function, whose frame is pushed when
    /// the scheduler first runs the thread (arguments are pre-written
    /// into the entry frame cells by the spawning thread).
    const Function *EntryFn = nullptr;
    bool Started = false;
    SyncId WaitSync = 0;
    ThreadId WaitTid = 0;
    int64_t Result = 0;
  };

  struct Semaphore {
    int64_t Count = 0;
    /// Created by lock_create (vs sem_create): reported on sync events
    /// so lockset-based analyses can tell mutexes from semaphores.
    bool IsLock = false;
  };

  // --- EventRecord emission (no-ops when no tools are attached). ---
  bool tracing() const { return Events && Events->isActive(); }
  /// Events go through the dispatcher's batching enqueue: adjacent
  /// same-thread accesses to consecutive cells coalesce into multi-cell
  /// events and tools see one handleBatch call per scheduling point
  /// instead of one virtual fan-out per cell. TraceActive caches
  /// tracing() for the duration of run() so the hot path tests a single
  /// bool (tools cannot attach mid-run).
  void emitEvent(const EventRecord &E) {
    if (TraceActive)
      Events->enqueue(E);
  }

  /// Tallies one execution of a quiet-marked access (\p MarkBit != 0)
  /// and returns the Emit flag for memRead/memWrite: suppressed when the
  /// mark is honored, a WindowInterrupted abort when a scheduler switch
  /// forced the event through. Unmarked accesses and native runs (no
  /// events either way) fall through without touching the tallies.
  bool noteQuietAccess(int64_t MarkBit) {
    if (MarkBit == 0 || !TraceActive)
      return true;
    if (WindowInterrupted) {
      ++Stats.QuietWindowAborts;
      return true;
    }
    ++Stats.QuietEventsSuppressed;
    return false;
  }

  // --- Guest memory. ---
  bool decodeAddress(Addr A, int64_t *&Cell);
  /// memRead/memWrite are force-inlined with a fast path for the
  /// accessing thread's own stack (the dominant case): locals resolve
  /// with one subtract and one bounds compare, no region decode.
  /// \p Emit false performs the access (and counts it in Stats) without
  /// emitting an event — used for optimizer-marked quiet accesses whose
  /// event is provably redundant (see vm/Optimizer.h).
  bool memRead(ThreadCtx &T, Addr A, int64_t &Value, bool Emit = true);
  bool memWrite(ThreadCtx &T, Addr A, int64_t Value, bool Emit = true);
  /// Kernel-side accesses: no thread Read/Write events (the syscall
  /// wrapper emits KernelRead/KernelWrite instead).
  bool rawRead(Addr A, int64_t &Value);
  bool rawWrite(Addr A, int64_t Value);

  // --- Thread and frame management. ---
  ThreadCtx &newThread(ThreadId Parent, const Function *Fn);
  /// Pushes an activation of \p Fn onto \p T. When \p NumArgs is nonzero
  /// the argument values are first spilled into the parameter cells with
  /// Write events attributed to the *current* topmost activation (the
  /// caller), so the callee's parameter reads register as its input —
  /// matching how compiled code stores arguments before the call
  /// instruction. Returns false on stack overflow.
  bool pushFrame(ThreadCtx &T, const Function *Fn, const int64_t *Args,
                 size_t NumArgs);
  void finishThread(ThreadCtx &T, int64_t Result);
  void wakeJoiners(ThreadId Ended);
  void wakeSemWaiters(SyncId Sem);

  // --- Execution. ---
  /// Executes up to SliceLength instructions of thread \p T — the
  /// fetch-execute loop itself, with the current frame cached across
  /// instructions. Returns false when the machine must stop (error or
  /// program end).
  bool runSlice(ThreadCtx &T);
  bool handleBuiltin(ThreadCtx &T, Builtin B, unsigned NumArgs);
  void runtimeError(const std::string &Message);

  const Program &Prog;
  EventDispatcher *Events;
  MachineOptions Options;
  ExternalDevice Device;
  Rng GuestRng;

  std::vector<int64_t> Globals;
  std::vector<int64_t> Heap;
  uint64_t HeapNext = 0;
  /// deque: spawn must not invalidate references to running threads.
  std::deque<ThreadCtx> ThreadList;
  std::vector<Semaphore> Semaphores;

  bool TraceActive = false;
  bool YieldRequested = false;
  /// True while the running thread may have been scheduled *into* the
  /// middle of a straight-line window: set whenever the scheduler
  /// switches threads (a counter-bump point that makes statically
  /// redundant events meaningful again), cleared when the running thread
  /// executes any window-breaking instruction (jump, call, builtin,
  /// spawn, return) — the points where the optimizer starts a fresh
  /// window anyway. Optimizer-marked quiet accesses are honored only
  /// while this is false: between a quiet access and its in-window
  /// covering access there are no breaking instructions by construction,
  /// so an interruption between them leaves the flag set until past the
  /// quiet access. Starts true (nothing has run yet).
  bool WindowInterrupted = true;
  /// Reused per Call/Spawn argument staging area; avoids a heap
  /// allocation per guest call (a measurable cost on call-dense guests).
  std::vector<int64_t> ArgScratch;
  RunStats Stats;
  std::string Output;
  std::string Error;
  bool Failed = false;
  bool MainReturned = false;
  int64_t MainResult = 0;
};

/// Convenience: compile \p Source and run it under \p Events. On compile
/// errors the result carries the rendered diagnostics in Error. Callers
/// that need the program's SymbolTable after the run should compile with
/// compileProgram() and keep the Program alive instead.
RunResult compileAndRun(const std::string &Source, EventDispatcher *Events,
                        MachineOptions Opts = MachineOptions());

} // namespace isp

#endif // ISPROF_VM_MACHINE_H
