//===- vm/Machine.cpp - Guest interpreter and scheduler -----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "obs/Obs.h"
#include "obs/TraceLog.h"
#include "support/Compiler.h"
#include "support/Format.h"
#include "vm/Compiler.h"

#include <cassert>
#include <utility>

using namespace isp;

Machine::Machine(const Program &Prog, EventDispatcher *Events,
                 MachineOptions Opts)
    : Prog(Prog), Events(Events), Options(Opts), Device(Opts.Seed),
      GuestRng(Opts.Seed) {
  assert(Options.StackCells <= StackRegionStride &&
         "stack size exceeds the per-thread address stride");
}

void Machine::runtimeError(const std::string &Message) {
  if (!Failed) {
    Failed = true;
    Error = Message;
  }
}

//===----------------------------------------------------------------------===//
// Guest memory
//===----------------------------------------------------------------------===//

bool Machine::decodeAddress(Addr A, int64_t *&Cell) {
  // Regions are laid out Global < Heap < Stack, so a descending chain of
  // single compares resolves each one; stacks first — locals dominate
  // the access mix of typical guests.
  if (A >= StackRegionBase) {
    uint64_t Index = (A - StackRegionBase) / StackRegionStride;
    uint64_t Offset = (A - StackRegionBase) % StackRegionStride;
    if (Index < ThreadList.size() && Offset < Options.StackCells) {
      ThreadCtx &Owner = ThreadList[Index];
      if (Offset >= Owner.StackMemory.size())
        Owner.StackMemory.resize(Offset + 1, 0);
      Cell = &Owner.StackMemory[Offset];
      return true;
    }
  } else if (A >= HeapBase) {
    if (A < HeapBase + Heap.size()) {
      Cell = &Heap[A - HeapBase];
      return true;
    }
  } else if (A >= GlobalBase && A < GlobalBase + Globals.size()) {
    Cell = &Globals[A - GlobalBase];
    return true;
  }
  runtimeError(formatString("invalid memory access at address %llu",
                            static_cast<unsigned long long>(A)));
  return false;
}

// The fast path resolves an access to the running thread's own stack —
// locals and allocas, the bulk of the access mix — with one subtract and
// one compare. Anything else (heap, globals, another thread's stack, or
// an invalid address; the subtract wraps for all of them) takes the full
// region decode. EventRecord construction is guarded so uninstrumented runs
// skip the timestamp bump and the EventRecord build entirely.
ISP_ALWAYS_INLINE bool Machine::memRead(ThreadCtx &T, Addr A, int64_t &Value,
                                        bool Emit) {
  uint64_t Offset = A - T.StackBase;
  if (ISP_LIKELY(Offset < Options.StackCells)) {
    if (ISP_UNLIKELY(Offset >= T.StackMemory.size()))
      T.StackMemory.resize(Offset + 1, 0);
    Value = T.StackMemory[Offset];
  } else {
    int64_t *Cell = nullptr;
    if (!decodeAddress(A, Cell))
      return false;
    Value = *Cell;
  }
  ++Stats.MemReads;
  if (TraceActive && Emit)
    Events->enqueue(EventRecord::read(T.Id, A));
  return true;
}

ISP_ALWAYS_INLINE bool Machine::memWrite(ThreadCtx &T, Addr A, int64_t Value,
                                         bool Emit) {
  uint64_t Offset = A - T.StackBase;
  if (ISP_LIKELY(Offset < Options.StackCells)) {
    if (ISP_UNLIKELY(Offset >= T.StackMemory.size()))
      T.StackMemory.resize(Offset + 1, 0);
    T.StackMemory[Offset] = Value;
  } else {
    int64_t *Cell = nullptr;
    if (!decodeAddress(A, Cell))
      return false;
    *Cell = Value;
  }
  ++Stats.MemWrites;
  if (TraceActive && Emit)
    Events->enqueue(EventRecord::write(T.Id, A));
  return true;
}

bool Machine::rawRead(Addr A, int64_t &Value) {
  int64_t *Cell = nullptr;
  if (!decodeAddress(A, Cell))
    return false;
  Value = *Cell;
  return true;
}

bool Machine::rawWrite(Addr A, int64_t Value) {
  int64_t *Cell = nullptr;
  if (!decodeAddress(A, Cell))
    return false;
  *Cell = Value;
  return true;
}

//===----------------------------------------------------------------------===//
// Threads and frames
//===----------------------------------------------------------------------===//

Machine::ThreadCtx &Machine::newThread(ThreadId Parent, const Function *Fn) {
  ThreadId Id = static_cast<ThreadId>(ThreadList.size());
  ThreadList.emplace_back();
  ThreadCtx &T = ThreadList.back();
  T.Id = Id;
  T.Parent = Parent;
  T.StackBase = StackRegionBase + static_cast<Addr>(Id) * StackRegionStride;
  T.Sp = T.StackBase;
  T.EntryFn = Fn;
  ++Stats.ThreadsSpawned;
  return T;
}

ISP_ALWAYS_INLINE bool Machine::pushFrame(ThreadCtx &T, const Function *Fn,
                                          const int64_t *Args,
                                          size_t NumArgs) {
  Addr FrameBase = T.Sp;
  if (FrameBase + Fn->NumLocals >= T.StackBase + Options.StackCells) {
    runtimeError(formatString("guest stack overflow in thread %u calling "
                              "'%s'",
                              T.Id, Fn->Name.c_str()));
    return false;
  }
  // Spill the arguments into the parameter cells *before* the Call
  // event: the writes belong to the caller, and the callee's parameter
  // reads are then first-accesses, i.e. input of the callee.
  for (size_t I = 0; I != NumArgs; ++I)
    if (!memWrite(T, FrameBase + I, Args[I]))
      return false;
  Frame F;
  F.Fn = Fn;
  F.Pc = 0;
  F.FrameBase = FrameBase;
  F.OperandBase = T.Operands.size();
  F.SavedSp = T.Sp;
  T.Sp = FrameBase + Fn->NumLocals;
  if (TraceActive)
    Events->enqueue(
        EventRecord::call(T.Id, Fn->Id, std::exchange(T.Blocks, 0)));
  T.Frames.push_back(F);
  return true;
}

void Machine::finishThread(ThreadCtx &T, int64_t Result) {
  T.State = ThreadStateKind::Finished;
  T.Result = Result;
  emitEvent(EventRecord::threadEnd(T.Id, std::exchange(T.Blocks, 0)));
  if (T.Id == 0) {
    MainReturned = true;
    MainResult = Result;
  }
  wakeJoiners(T.Id);
}

void Machine::wakeJoiners(ThreadId Ended) {
  for (ThreadCtx &T : ThreadList)
    if (T.State == ThreadStateKind::BlockedJoin && T.WaitTid == Ended)
      T.State = ThreadStateKind::Runnable;
}

void Machine::wakeSemWaiters(SyncId Sem) {
  for (ThreadCtx &T : ThreadList)
    if (T.State == ThreadStateKind::BlockedSem && T.WaitSync == Sem)
      T.State = ThreadStateKind::Runnable;
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

namespace {
inline int64_t popValue(std::vector<int64_t> &Operands) {
  assert(!Operands.empty() && "operand stack underflow");
  int64_t V = Operands.back();
  Operands.pop_back();
  return V;
}
} // namespace

bool Machine::handleBuiltin(ThreadCtx &T, Builtin B, unsigned NumArgs) {
  // Pop arguments (pushed left to right).
  int64_t Args[3] = {0, 0, 0};
  assert(NumArgs <= 3 && "builtins take at most three arguments");
  for (unsigned I = NumArgs; I > 0; --I)
    Args[I - 1] = popValue(T.Operands);

  auto block = [&](ThreadStateKind Kind) {
    // Re-push the arguments and retry this instruction when woken.
    for (unsigned I = 0; I != NumArgs; ++I)
      T.Operands.push_back(Args[I]);
    T.State = Kind;
    return false;
  };

  switch (B) {
  case Builtin::Print:
    Output += formatString("%lld\n", static_cast<long long>(Args[0]));
    T.Operands.push_back(Args[0]);
    return true;

  case Builtin::Alloc: {
    if (Args[0] < 0) {
      runtimeError("alloc() with negative size");
      return true;
    }
    if (HeapBase + HeapNext + static_cast<uint64_t>(Args[0]) >=
        StackRegionBase) {
      runtimeError("guest heap exhausted");
      return true;
    }
    Addr Base = HeapBase + HeapNext;
    HeapNext += static_cast<uint64_t>(Args[0]);
    Heap.resize(HeapNext, 0);
    Stats.HeapCellsAllocated += static_cast<uint64_t>(Args[0]);
    emitEvent(EventRecord::alloc(T.Id, Base, static_cast<uint64_t>(Args[0])));
    T.Operands.push_back(static_cast<int64_t>(Base));
    return true;
  }

  case Builtin::Free:
    emitEvent(EventRecord::free(T.Id, static_cast<Addr>(Args[0])));
    T.Operands.push_back(0);
    return true;

  case Builtin::SysRead: {
    int64_t Fd = Args[0], Buf = Args[1], N = Args[2];
    if (N < 0) {
      runtimeError("sysread() with negative length");
      return true;
    }
    for (int64_t I = 0; I != N; ++I)
      if (!rawWrite(static_cast<Addr>(Buf + I), Device.readValue(Fd)))
        return true;
    if (N > 0)
      emitEvent(EventRecord::kernelWrite(T.Id, static_cast<Addr>(Buf),
                                         static_cast<uint64_t>(N)));
    T.Operands.push_back(N);
    return true;
  }

  case Builtin::SysWrite: {
    int64_t Fd = Args[0], Buf = Args[1], N = Args[2];
    if (N < 0) {
      runtimeError("syswrite() with negative length");
      return true;
    }
    for (int64_t I = 0; I != N; ++I) {
      int64_t V = 0;
      if (!rawRead(static_cast<Addr>(Buf + I), V))
        return true;
      Device.writeValue(Fd, V);
    }
    if (N > 0)
      emitEvent(EventRecord::kernelRead(T.Id, static_cast<Addr>(Buf),
                                        static_cast<uint64_t>(N)));
    T.Operands.push_back(N);
    return true;
  }

  case Builtin::SemCreate:
  case Builtin::LockCreate: {
    Semaphore S;
    S.IsLock = B == Builtin::LockCreate;
    S.Count = S.IsLock ? 1 : Args[0];
    Semaphores.push_back(S);
    T.Operands.push_back(static_cast<int64_t>(Semaphores.size() - 1));
    return true;
  }

  case Builtin::SemWait:
  case Builtin::LockAcquire: {
    int64_t Id = Args[0];
    if (Id < 0 || static_cast<size_t>(Id) >= Semaphores.size()) {
      runtimeError("sem_wait() on invalid semaphore id");
      return true;
    }
    if (Semaphores[Id].Count <= 0) {
      T.WaitSync = static_cast<SyncId>(Id);
      return block(ThreadStateKind::BlockedSem);
    }
    --Semaphores[Id].Count;
    emitEvent(EventRecord::syncAcquire(T.Id, static_cast<SyncId>(Id),
                                       Semaphores[Id].IsLock));
    T.Operands.push_back(0);
    return true;
  }

  case Builtin::SemPost:
  case Builtin::LockRelease: {
    int64_t Id = Args[0];
    if (Id < 0 || static_cast<size_t>(Id) >= Semaphores.size()) {
      runtimeError("sem_post() on invalid semaphore id");
      return true;
    }
    ++Semaphores[Id].Count;
    emitEvent(EventRecord::syncRelease(T.Id, static_cast<SyncId>(Id),
                                       Semaphores[Id].IsLock));
    wakeSemWaiters(static_cast<SyncId>(Id));
    T.Operands.push_back(0);
    return true;
  }

  case Builtin::Join: {
    int64_t Target = Args[0];
    if (Target < 0 || static_cast<size_t>(Target) >= ThreadList.size()) {
      runtimeError("join() on invalid thread id");
      return true;
    }
    ThreadCtx &Joinee = ThreadList[static_cast<size_t>(Target)];
    if (Joinee.State != ThreadStateKind::Finished) {
      T.WaitTid = static_cast<ThreadId>(Target);
      return block(ThreadStateKind::BlockedJoin);
    }
    emitEvent(EventRecord::threadJoin(T.Id, Joinee.Id));
    T.Operands.push_back(Joinee.Result);
    return true;
  }

  case Builtin::Rand:
    T.Operands.push_back(
        Args[0] > 0
            ? static_cast<int64_t>(
                  GuestRng.nextBelow(static_cast<uint64_t>(Args[0])))
            : 0);
    return true;

  case Builtin::Yield:
    T.Operands.push_back(0);
    // Handled by the scheduler via the YieldRequested signal below; the
    // builtin itself completes normally.
    YieldRequested = true;
    return true;

  case Builtin::Load: {
    int64_t Value = 0;
    if (memRead(T, static_cast<Addr>(Args[0]), Value))
      T.Operands.push_back(Value);
    return true;
  }

  case Builtin::Store:
    memWrite(T, static_cast<Addr>(Args[0]), Args[1]);
    T.Operands.push_back(Args[1]);
    return true;

  case Builtin::ThreadId:
    T.Operands.push_back(T.Id);
    return true;
  }
  ISP_UNREACHABLE("unknown builtin");
}

// The fetch-execute loop dispatches through computed gotos (the
// labels-as-values extension GCC and Clang share): every opcode body
// ends in its own indirect jump through a per-opcode label table, which
// skips a switch's bounds check and jump-table load and gives the host
// branch predictor one history slot per opcode instead of one shared
// dispatch site. A switch loop over the same bodies measured no faster
// end to end (DESIGN.md, "One interpreter loop").
//
// ISP_NEXT ends an opcode body: it stops when the slice budget is spent,
// otherwise fetches the next instruction and jumps to its label.
#define ISP_NEXT                                                               \
  {                                                                            \
    if (ISP_UNLIKELY(Tally.Done == Budget))                                    \
      goto SliceExhausted;                                                     \
    InstrPc = F->Pc;                                                           \
    I = CodeBase + InstrPc;                                                    \
    ++F->Pc;                                                                   \
    ++Tally.Done;                                                              \
    goto *OpLabels[static_cast<size_t>(I->Opcode)];                            \
  }

bool Machine::runSlice(ThreadCtx &T) {
  // Labels-as-values are only visible inside the defining function, so
  // the table is a static local.
  static const void *const OpLabels[NumOpcodes] = {
#define ISP_OP_LABEL(NAME) &&Lbl_##NAME,
      ISP_FOR_EACH_OPCODE(ISP_OP_LABEL)
#undef ISP_OP_LABEL
  };

  YieldRequested = false;
  // Hoist the global instruction-budget check out of the per-instruction
  // loop: cap this slice at the remaining budget and only report the
  // overrun when the capped slice is exhausted.
  uint64_t Budget = Options.SliceLength;
  uint64_t Remaining = Options.MaxInstructions > Stats.Instructions
                           ? Options.MaxInstructions - Stats.Instructions
                           : 0;
  bool Capped = Remaining < Budget;
  if (Capped)
    Budget = Remaining;

  // Executed instructions land in Stats on every exit path (the budget
  // math above reads Stats, so it must be current between slices).
  struct InstrTally {
    uint64_t &Total;
    uint64_t Done = 0;
    ~InstrTally() { Total += Done; }
  } Tally{Stats.Instructions};

  // Only the opcodes that can block, fail, or reschedule test the
  // machine state. Every error path exits with `return !Failed`, which
  // also covers the non-error exits (thread finished, builtin blocked).
  // The frame pointer and the code base stay cached in registers across
  // instructions; the opcodes that push or pop frames refresh both. The
  // pc-in-range invariant is checked when the cache is (re)established —
  // per-dispatch asserts would put two extra loads on the hottest path
  // in the program (this project builds with assertions on everywhere).
  Frame *F = &T.Frames.back();
  const Instr *CodeBase = F->Fn->Code.data();
  assert(F->Pc < F->Fn->Code.size() && "pc out of range");
  const Instr *I = nullptr;
  size_t InstrPc = 0;
  // Dispatch the first instruction (also handles a zero budget).
  ISP_NEXT

Lbl_Nop:
  ISP_NEXT

Lbl_BasicBlock:
  ++Stats.BasicBlocks;
  ++T.Blocks;
  ISP_NEXT

Lbl_PushConst:
  T.Operands.push_back(I->A);
  ISP_NEXT

Lbl_Pop:
  popValue(T.Operands);
  ISP_NEXT

Lbl_LoadLocal: {
  int64_t Value = 0;
  if (!memRead(T, F->FrameBase + static_cast<Addr>(I->A), Value,
               /*Emit=*/noteQuietAccess(I->B)))
    return !Failed;
  T.Operands.push_back(Value);
  ISP_NEXT
}

Lbl_StoreLocal:
  if (!memWrite(T, F->FrameBase + static_cast<Addr>(I->A),
                popValue(T.Operands),
                /*Emit=*/noteQuietAccess(I->B)))
    return !Failed;
  ISP_NEXT

Lbl_LoadGlobal: {
  int64_t Value = 0;
  if (!memRead(T, static_cast<Addr>(I->A), Value,
               /*Emit=*/noteQuietAccess(I->B)))
    return !Failed;
  T.Operands.push_back(Value);
  ISP_NEXT
}

Lbl_StoreGlobal:
  if (!memWrite(T, static_cast<Addr>(I->A), popValue(T.Operands),
                /*Emit=*/noteQuietAccess(I->B)))
    return !Failed;
  ISP_NEXT

Lbl_LoadIndirect: {
  int64_t Index = popValue(T.Operands);
  int64_t Base = popValue(T.Operands);
  int64_t Value = 0;
  bool Emit = noteQuietAccess(I->B);
  if (!Emit)
    ++Stats.QuietIndirectSuppressed;
  if (!memRead(T, static_cast<Addr>(Base + Index), Value, Emit))
    return !Failed;
  T.Operands.push_back(Value);
  ISP_NEXT
}

Lbl_StoreIndirect: {
  int64_t Value = popValue(T.Operands);
  int64_t Index = popValue(T.Operands);
  int64_t Base = popValue(T.Operands);
  bool Emit = noteQuietAccess(I->B);
  if (!Emit)
    ++Stats.QuietIndirectSuppressed;
  if (!memWrite(T, static_cast<Addr>(Base + Index), Value, Emit))
    return !Failed;
  ISP_NEXT
}

Lbl_AllocaArray: {
  int64_t N = popValue(T.Operands);
  if (N < 0) {
    runtimeError("negative local array size");
    return !Failed;
  }
  Addr Base = T.Sp;
  if (Base + static_cast<Addr>(N) >= T.StackBase + Options.StackCells) {
    runtimeError(formatString("guest stack overflow (local array of "
                              "%lld cells) in thread %u",
                              static_cast<long long>(N), T.Id));
    return !Failed;
  }
  T.Sp += static_cast<Addr>(N);
  T.Operands.push_back(static_cast<int64_t>(Base));
  ISP_NEXT
}

// Pop the right operand, rewrite the left in place: one size update
// instead of three on the operand vector.
#define ISP_BINARY_CASE(OPCODE, EXPR)                                          \
  Lbl_##OPCODE : {                                                             \
    int64_t Rhs = popValue(T.Operands);                                        \
    assert(!T.Operands.empty() && "operand stack underflow");                  \
    int64_t &Slot = T.Operands.back();                                         \
    int64_t Lhs = Slot;                                                        \
    (void)Lhs;                                                                 \
    (void)Rhs;                                                                 \
    Slot = (EXPR);                                                             \
    ISP_NEXT                                                                   \
  }

  ISP_BINARY_CASE(Add, guestAdd(Lhs, Rhs))
  ISP_BINARY_CASE(Sub, guestSub(Lhs, Rhs))
  ISP_BINARY_CASE(Mul, guestMul(Lhs, Rhs))
  ISP_BINARY_CASE(Lt, Lhs < Rhs ? 1 : 0)
  ISP_BINARY_CASE(Le, Lhs <= Rhs ? 1 : 0)
  ISP_BINARY_CASE(Gt, Lhs > Rhs ? 1 : 0)
  ISP_BINARY_CASE(Ge, Lhs >= Rhs ? 1 : 0)
  ISP_BINARY_CASE(Eq, Lhs == Rhs ? 1 : 0)
  ISP_BINARY_CASE(Ne, Lhs != Rhs ? 1 : 0)
#undef ISP_BINARY_CASE

Lbl_Div: {
  int64_t Rhs = popValue(T.Operands);
  if (Rhs == 0) {
    runtimeError("division by zero");
    return !Failed;
  }
  T.Operands.back() = guestDiv(T.Operands.back(), Rhs);
  ISP_NEXT
}

Lbl_Mod: {
  int64_t Rhs = popValue(T.Operands);
  if (Rhs == 0) {
    runtimeError("modulo by zero");
    return !Failed;
  }
  T.Operands.back() = guestMod(T.Operands.back(), Rhs);
  ISP_NEXT
}

Lbl_Neg:
  T.Operands.back() = guestNeg(T.Operands.back());
  ISP_NEXT

Lbl_Not:
  T.Operands.back() = T.Operands.back() == 0 ? 1 : 0;
  ISP_NEXT

Lbl_ToBool:
  T.Operands.back() = T.Operands.back() != 0 ? 1 : 0;
  ISP_NEXT

Lbl_Jump:
  F->Pc = static_cast<size_t>(I->A);
  // Jump, Call, CallBuiltin, Spawn, and Return are the optimizer's
  // window-breaking instructions: a fresh quiet window starts after
  // each, so any earlier mid-window interruption is behind us.
  WindowInterrupted = false;
  ISP_NEXT

Lbl_JumpIfFalse:
  if (popValue(T.Operands) == 0)
    F->Pc = static_cast<size_t>(I->A);
  ISP_NEXT

Lbl_JumpIfTrue:
  if (popValue(T.Operands) != 0)
    F->Pc = static_cast<size_t>(I->A);
  ISP_NEXT

Lbl_Call: {
  const Function &Callee = Prog.Functions[static_cast<size_t>(I->A)];
  size_t NumArgs = static_cast<size_t>(I->B);
  ArgScratch.resize(NumArgs);
  for (size_t J = NumArgs; J > 0; --J)
    ArgScratch[J - 1] = popValue(T.Operands);
  if (!pushFrame(T, &Callee, ArgScratch.data(), NumArgs))
    return !Failed;
  F = &T.Frames.back();
  CodeBase = F->Fn->Code.data();
  assert(F->Pc < F->Fn->Code.size() && "pc out of range");
  WindowInterrupted = false;
  ISP_NEXT
}

Lbl_CallBuiltin: {
  bool Proceeded = handleBuiltin(T, static_cast<Builtin>(I->A),
                                 static_cast<unsigned>(I->B));
  if (!Proceeded)
    F->Pc = InstrPc; // blocked: retry this instruction when woken
  if (!Proceeded || Failed)
    return !Failed;
  WindowInterrupted = false;
  if (YieldRequested || T.State != ThreadStateKind::Runnable)
    return true;
  ISP_NEXT
}

Lbl_Spawn: {
  const Function &Callee = Prog.Functions[static_cast<size_t>(I->A)];
  size_t NumArgs = static_cast<size_t>(I->B);
  ArgScratch.resize(NumArgs);
  for (size_t J = NumArgs; J > 0; --J)
    ArgScratch[J - 1] = popValue(T.Operands);
  ThreadCtx &Child = newThread(T.Id, &Callee);
  // The parent writes the arguments into the child's (future) entry
  // frame, like code publishing an argument block before calling
  // pthread_create: when the child first reads its parameters, those
  // are induced first-accesses — genuine thread-communication input.
  // The writes precede the ThreadCreate event so the create edge
  // orders them for happens-before analyses.
  for (size_t J = 0; J != NumArgs; ++J)
    if (!memWrite(T, Child.StackBase + J, ArgScratch[J]))
      return !Failed;
  emitEvent(EventRecord::threadCreate(T.Id, Child.Id));
  T.Operands.push_back(Child.Id);
  WindowInterrupted = false;
  ISP_NEXT
}

Lbl_Return: {
  int64_t Result = popValue(T.Operands);
  Frame Completed = T.Frames.back();
  if (TraceActive)
    Events->enqueue(EventRecord::ret(T.Id, Completed.Fn->Id,
                                     std::exchange(T.Blocks, 0)));
  T.Frames.pop_back();
  T.Sp = Completed.SavedSp;
  T.Operands.resize(Completed.OperandBase);
  if (T.Frames.empty()) {
    finishThread(T, Result);
    return !Failed;
  }
  T.Operands.push_back(Result);
  F = &T.Frames.back();
  CodeBase = F->Fn->Code.data();
  assert(F->Pc < F->Fn->Code.size() && "pc out of range");
  WindowInterrupted = false;
  ISP_NEXT
}

SliceExhausted:
  if (Capped) {
    runtimeError("guest instruction budget exceeded (possible infinite "
                 "loop)");
    return false;
  }
  return true;
}

#undef ISP_NEXT

RunResult Machine::run() {
  RunResult Result;

  // Load the program image.
  Globals.resize(Prog.GlobalCells, 0);
  for (const GlobalInit &Init : Prog.GlobalInits) {
    assert(Init.Address >= GlobalBase &&
           Init.Address < GlobalBase + Globals.size());
    Globals[Init.Address - GlobalBase] = Init.Value;
  }

  if (Events)
    Events->start(&Prog.Symbols);
  TraceActive = tracing();

  newThread(/*Parent=*/0, &Prog.Functions[Prog.EntryIndex]);

  // Fair round-robin serializing scheduler.
  size_t Cursor = 0;
  ThreadId LastRunning = 0;
  bool HaveLastRunning = false;
  while (!Failed) {
    // Find the next runnable thread at or after the cursor.
    size_t Live = 0;
    ThreadCtx *Next = nullptr;
    for (size_t Probe = 0; Probe != ThreadList.size(); ++Probe) {
      size_t Index = (Cursor + Probe) % ThreadList.size();
      ThreadCtx &T = ThreadList[Index];
      if (T.State == ThreadStateKind::Finished)
        continue;
      ++Live;
      if (!Next && T.State == ThreadStateKind::Runnable) {
        Next = &T;
        Cursor = (Index + 1) % ThreadList.size();
      }
    }
    if (Live == 0)
      break;
    if (!Next) {
      runtimeError("deadlock: all live guest threads are blocked");
      break;
    }

    ThreadCtx &T = *Next;
    if (HaveLastRunning && LastRunning != T.Id) {
      ++Stats.ThreadSwitches;
      // The incoming thread may resume mid-window; suspend quiet marks
      // until it passes a window-breaking instruction.
      WindowInterrupted = true;
    }
    LastRunning = T.Id;
    HaveLastRunning = true;

    if (!T.Started) {
      T.Started = true;
      if (ISP_UNLIKELY(obs::tracingEnabled())) {
        obs::TraceLog::get().setLaneName(static_cast<obs::LaneId>(T.Id),
                                         "guest thread " +
                                             std::to_string(T.Id));
        obs::TraceLog::get().instant(static_cast<obs::LaneId>(T.Id),
                                     "thread_start", "guest", obs::nowNs());
      }
      emitEvent(EventRecord::threadStart(T.Id, T.Parent));
      // Spawn arguments were already written into the entry frame cells
      // by the parent; main has none.
      if (!pushFrame(T, T.EntryFn, /*Args=*/nullptr, /*NumArgs=*/0))
        break;
    }
    if (T.State == ThreadStateKind::Runnable && !T.Frames.empty()) {
      if (ISP_UNLIKELY(obs::tracingEnabled())) {
        // Name the slice after the function on top at slice entry (the
        // slice may return out of or call into other frames mid-way).
        std::string SliceName = T.Frames.back().Fn->Name;
        uint64_t SliceStart = obs::nowNs();
        runSlice(T);
        obs::TraceLog::get().completeSpan(static_cast<obs::LaneId>(T.Id),
                                          SliceName, "guest", SliceStart,
                                          obs::nowNs());
      } else {
        runSlice(T);
      }
    }
  }

  // Account the guest footprint before tearing anything down.
  uint64_t GuestCells = Globals.size() + Heap.size();
  for (const ThreadCtx &T : ThreadList)
    GuestCells += T.StackMemory.size();
  Stats.GuestMemoryBytes = GuestCells * sizeof(int64_t);

  // Fold the run's tallies into the process-wide registry (the per-run
  // RunStats copy in Result is unaffected and stays the API of record
  // for single runs; the registry aggregates across runs).
  if (ISP_UNLIKELY(obs::statsEnabled())) {
    obs::Registry &R = obs::Registry::get();
    R.counter("machine.instructions").add(Stats.Instructions);
    R.counter("machine.basic_blocks").add(Stats.BasicBlocks);
    R.counter("machine.mem_reads").add(Stats.MemReads);
    R.counter("machine.mem_writes").add(Stats.MemWrites);
    R.counter("machine.threads_spawned").add(Stats.ThreadsSpawned);
    R.counter("machine.thread_switches").add(Stats.ThreadSwitches);
    R.counter("machine.heap_cells_allocated").add(Stats.HeapCellsAllocated);
    R.counter("machine.quiet_suppressed").add(Stats.QuietEventsSuppressed);
    R.counter("machine.quiet_window_aborts").add(Stats.QuietWindowAborts);
    R.counter("machine.quiet_indirect_suppressed")
        .add(Stats.QuietIndirectSuppressed);
    R.gauge("machine.guest_memory_bytes").noteMax(Stats.GuestMemoryBytes);
  }

  if (Events)
    Events->finish();

  Result.Ok = !Failed;
  Result.Error = Error;
  Result.ExitCode = MainResult;
  Result.Output = std::move(Output);
  Result.Stats = Stats;
  return Result;
}

RunResult isp::compileAndRun(const std::string &Source,
                             EventDispatcher *Events, MachineOptions Opts) {
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  if (!Prog) {
    RunResult Result;
    Result.Ok = false;
    Result.Error = "compile error:\n" + Diags.render();
    return Result;
  }
  Machine M(*Prog, Events, Opts);
  return M.run();
}
