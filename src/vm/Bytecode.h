//===- vm/Bytecode.h - Guest bytecode and program image ---------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stack-machine bytecode the guest compiler targets and the
/// interpreter executes. Named variables and arrays live in *guest
/// memory* (globals region, heap, per-thread stacks) so every access is
/// an observable Read/Write event, exactly like compiled code under
/// binary instrumentation; the operand stack models registers and is
/// not instrumented. Op::BasicBlock markers are placed by the compiler
/// at structured control-flow leaders; executing one is the cost unit
/// (the paper profiles cost in basic blocks, Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_VM_BYTECODE_H
#define ISPROF_VM_BYTECODE_H

#include "instr/SymbolTable.h"
#include "trace/Event.h"

#include <cstdint>
#include <string>
#include <vector>

namespace isp {

enum class Op : uint8_t {
  Nop,
  /// Cost marker: bumps the thread's basic-block counter.
  BasicBlock,
  /// Push immediate A.
  PushConst,
  /// Discard the top of the operand stack.
  Pop,
  /// Guest-memory loads/stores. A = local slot or global address.
  LoadLocal,
  StoreLocal,
  LoadGlobal,
  StoreGlobal,
  /// Pops index then base; pushes mem[base + index].
  LoadIndirect,
  /// Pops value, index, base; mem[base + index] = value.
  StoreIndirect,
  /// Pops size; extends the current frame by that many cells and pushes
  /// the base address ("var a[n];" inside a function).
  AllocaArray,
  // Arithmetic/logic: binary ops pop rhs then lhs and push the result.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  Neg,
  Not,
  /// Pops X, pushes (X != 0).
  ToBool,
  /// Unconditional jump to pc A.
  Jump,
  /// Pops condition; jumps to A when it is zero / non-zero.
  JumpIfFalse,
  JumpIfTrue,
  /// Calls function index A with B arguments (popped rhs-last).
  Call,
  /// Calls builtin A with B arguments.
  CallBuiltin,
  /// Spawns a thread running function index A with B arguments; pushes
  /// the new thread id.
  Spawn,
  /// Pops the return value and returns from the current activation.
  Return
};

/// X-macro over every opcode, in enum order. The interpreter loop
/// builds its computed-goto label table from this list (one label per
/// opcode, indexed by the enum value), so the list and the enum must
/// stay in lockstep; the static_asserts below turn a reordering of
/// either into a compile error.
#define ISP_FOR_EACH_OPCODE(X)                                                 \
  X(Nop) X(BasicBlock) X(PushConst) X(Pop) X(LoadLocal) X(StoreLocal)          \
  X(LoadGlobal) X(StoreGlobal) X(LoadIndirect) X(StoreIndirect)                \
  X(AllocaArray) X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(Lt) X(Le) X(Gt) X(Ge)    \
  X(Eq) X(Ne) X(Neg) X(Not) X(ToBool) X(Jump) X(JumpIfFalse) X(JumpIfTrue)     \
  X(Call) X(CallBuiltin) X(Spawn) X(Return)

namespace detail {
enum : unsigned {
#define ISP_OP_ORDINAL(NAME) OpListOrdinal_##NAME,
  ISP_FOR_EACH_OPCODE(ISP_OP_ORDINAL)
#undef ISP_OP_ORDINAL
  OpListSize
};
#define ISP_OP_ORDER_CHECK(NAME)                                               \
  static_assert(static_cast<unsigned>(Op::NAME) == OpListOrdinal_##NAME,       \
                "ISP_FOR_EACH_OPCODE out of sync with enum Op");
ISP_FOR_EACH_OPCODE(ISP_OP_ORDER_CHECK)
#undef ISP_OP_ORDER_CHECK
} // namespace detail

/// Number of Op enumerators.
inline constexpr unsigned NumOpcodes = detail::OpListSize;

/// Guest integer arithmetic wraps modulo 2^64. The host computes it in
/// unsigned arithmetic, which C++ defines, so no guest value reaches
/// signed-overflow undefined behaviour; the interpreter and the
/// optimizer's constant folding share these so both agree.
inline int64_t guestAdd(int64_t Lhs, int64_t Rhs) {
  return static_cast<int64_t>(static_cast<uint64_t>(Lhs) +
                              static_cast<uint64_t>(Rhs));
}
inline int64_t guestSub(int64_t Lhs, int64_t Rhs) {
  return static_cast<int64_t>(static_cast<uint64_t>(Lhs) -
                              static_cast<uint64_t>(Rhs));
}
inline int64_t guestMul(int64_t Lhs, int64_t Rhs) {
  return static_cast<int64_t>(static_cast<uint64_t>(Lhs) *
                              static_cast<uint64_t>(Rhs));
}
inline int64_t guestNeg(int64_t Operand) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(Operand));
}
/// Division and remainder truncate toward zero. A divisor of -1 takes
/// the wrapping path, since INT64_MIN / -1 traps on x86. Callers reject
/// a zero divisor first.
inline int64_t guestDiv(int64_t Lhs, int64_t Rhs) {
  return Rhs == -1 ? guestNeg(Lhs) : Lhs / Rhs;
}
inline int64_t guestMod(int64_t Lhs, int64_t Rhs) {
  return Rhs == -1 ? 0 : Lhs % Rhs;
}

/// Builtin routines provided by the VM runtime.
enum class Builtin : uint8_t {
  Print,       ///< print(x): appends "x\n" to the run output; returns x.
  Alloc,       ///< alloc(n): allocates n heap cells, returns base address.
  Free,        ///< free(p): releases a heap block (no reuse).
  SysRead,     ///< sysread(fd, buf, n): kernel fills buf from device fd.
  SysWrite,    ///< syswrite(fd, buf, n): kernel sends buf to device fd.
  SemCreate,   ///< sem_create(init): new semaphore, returns its id.
  SemWait,     ///< sem_wait(s): P operation; blocks while the count is 0.
  SemPost,     ///< sem_post(s): V operation; wakes blocked waiters.
  LockCreate,  ///< lock_create(): binary semaphore initialized to 1.
  LockAcquire, ///< lock_acquire(l).
  LockRelease, ///< lock_release(l).
  Join,        ///< join(t): blocks until thread t ends; returns its result.
  Rand,        ///< rand(bound): deterministic uniform value in [0, bound).
  Yield,       ///< yield(): voluntarily ends the scheduling quantum.
  Load,        ///< load(addr): raw guest-memory read.
  Store,       ///< store(addr, v): raw guest-memory write; returns v.
  ThreadId     ///< thread_id(): id of the calling thread.
};

/// Returns the builtin for \p Name, or ~0u cast if unknown.
bool lookupBuiltin(const std::string &Name, Builtin &Out, unsigned &Arity);

/// Number of Builtin enumerators (bounds-check helper for the verifier).
inline constexpr unsigned NumBuiltins =
    static_cast<unsigned>(Builtin::ThreadId) + 1;

/// Argument count of \p B, or -1 when the raw value is not a builtin.
int builtinArity(int64_t B);

struct Instr {
  Op Opcode = Op::Nop;
  int64_t A = 0;
  int64_t B = 0;
};

struct Function {
  std::string Name;
  RoutineId Id = 0;
  unsigned NumParams = 0;
  /// Total frame slots (params + every declared local).
  unsigned NumLocals = 0;
  std::vector<Instr> Code;
};

/// One global scalar initializer (address, value).
struct GlobalInit {
  Addr Address = 0;
  int64_t Value = 0;
};

/// Layout record for one global array: the named cell holding the base
/// pointer and the storage range it points at. Emitted by the compiler
/// so static analyses can reason about which indirect accesses land in
/// which array without re-deriving the layout from GlobalInits.
struct GlobalArrayInfo {
  std::string Name;
  Addr Cell = 0;       ///< named cell that holds the base address
  Addr Base = 0;       ///< first storage cell
  uint64_t Cells = 0;  ///< storage extent in cells
};

/// Name record for one global scalar cell (arrays are in GlobalArrays),
/// emitted so diagnostics — lint warnings, verifier errors — can name
/// the cell instead of printing a bare address.
struct GlobalVarInfo {
  std::string Name;
  Addr Cell = 0;
};

/// A compiled guest program.
struct Program {
  std::vector<Function> Functions;
  /// Routine names for reporting; ids match Function::Id.
  SymbolTable Symbols;
  /// Number of cells in the globals region (variables + array storage).
  uint64_t GlobalCells = 0;
  /// Startup initialization (scalar values and array base addresses),
  /// applied by the loader before main runs, without events.
  std::vector<GlobalInit> GlobalInits;
  /// Global array layout, in declaration order (see GlobalArrayInfo).
  std::vector<GlobalArrayInfo> GlobalArrays;
  /// Global scalar names, in declaration order.
  std::vector<GlobalVarInfo> GlobalVars;
  /// Index of "main" in Functions.
  size_t EntryIndex = 0;

  const Function *findFunction(const std::string &Name) const {
    for (const Function &F : Functions)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
};

/// Base address of the globals region (address 0 is reserved so that a
/// zero value never aliases a valid cell). The guest address space is
/// deliberately compact — globals below 2^22, heap in [2^22, 2^24),
/// stacks above 2^24 — so shadow memories stay proportional to memory
/// actually used.
inline constexpr Addr GlobalBase = 16;
/// Base address of the heap region.
inline constexpr Addr HeapBase = Addr(1) << 22;
/// Base address of the per-thread stack regions; thread t's stack starts
/// at StackRegionBase + t * StackRegionStride, and a thread's stack is
/// its whole region of StackRegionStride cells.
inline constexpr Addr StackRegionBase = Addr(1) << 24;
inline constexpr Addr StackRegionStride = Addr(1) << 17;
/// Stack regions that fit in the guest address space (MaxGuestAddress):
/// a guest can create threads 0 to MaxGuestThreads - 1, and a spawn that
/// would create thread MaxGuestThreads fails.
inline constexpr ThreadId MaxGuestThreads = static_cast<ThreadId>(
    (MaxGuestAddress + 1 - StackRegionBase) / StackRegionStride);
static_assert(StackRegionBase + MaxGuestThreads * StackRegionStride ==
                  MaxGuestAddress + 1,
              "the last stack region must end at the guest address space");

} // namespace isp

#endif // ISPROF_VM_BYTECODE_H
