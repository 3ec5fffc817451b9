//===- analysis/Range.cpp - Interprocedural value-range analysis ------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/Range.h"

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "analysis/Verifier.h"
#include "obs/Obs.h"
#include "support/Format.h"

#include <algorithm>
#include <deque>
#include <optional>

using namespace isp;
using namespace isp::analysis;

//===----------------------------------------------------------------------===//
// Interval arithmetic
//===----------------------------------------------------------------------===//

namespace {

constexpr int64_t NegInf = Interval::NegInf;
constexpr int64_t PosInf = Interval::PosInf;

/// The machine wraps on int64 overflow, so when a computation may wrap
/// nothing is known about the result.
Interval saturatedTop() {
  Interval R = Interval::top();
  R.Saturated = true;
  return R;
}

/// True when either operand carries an infinity sentinel in some bound.
bool anyInfBound(const Interval &A, const Interval &B) {
  return A.Lo == Interval::NegInf || A.Hi == Interval::PosInf ||
         B.Lo == Interval::NegInf || B.Hi == Interval::PosInf;
}

/// Builds an interval from ideal (unbounded) integer bounds. The
/// sentinels equal the int64 extremes, so ideal arithmetic over raw
/// bounds is exact: a bound landing outside [INT64_MIN, INT64_MAX]
/// means some concrete execution may wrap, and the result degrades to
/// top; a bound landing exactly on an extreme becomes the corresponding
/// infinity sentinel, which is a sound reading. Only an overflow of
/// all-finite bounds (\p AnyInf false) is wrap *evidence* and sets
/// Saturated — overflow through a widening infinity is an artifact of
/// the sentinel encoding, and warning on it would flag ordinary
/// widened loop counters (the result interval is top either way).
Interval fromIdeal(__int128 Lo, __int128 Hi, bool Sat, bool AnyInf) {
  if (Lo < static_cast<__int128>(INT64_MIN) ||
      Hi > static_cast<__int128>(INT64_MAX)) {
    if (AnyInf && !Sat)
      return Interval::top();
    return saturatedTop();
  }
  Interval R;
  R.Lo = static_cast<int64_t>(Lo);
  R.Hi = static_cast<int64_t>(Hi);
  R.Saturated = Sat;
  return R;
}

} // namespace

std::string Interval::str() const {
  std::string L = Lo == NegInf ? "-inf" : std::to_string(Lo);
  std::string H = Hi == PosInf ? "+inf" : std::to_string(Hi);
  return "[" + L + "," + H + "]";
}

Interval isp::analysis::intervalJoin(const Interval &A, const Interval &B) {
  Interval R;
  R.Lo = std::min(A.Lo, B.Lo);
  R.Hi = std::max(A.Hi, B.Hi);
  R.Saturated = A.Saturated || B.Saturated;
  return R;
}

Interval isp::analysis::intervalAdd(const Interval &A, const Interval &B) {
  return fromIdeal(static_cast<__int128>(A.Lo) + B.Lo,
                   static_cast<__int128>(A.Hi) + B.Hi,
                   A.Saturated || B.Saturated, anyInfBound(A, B));
}

Interval isp::analysis::intervalNeg(const Interval &A) {
  return fromIdeal(-static_cast<__int128>(A.Hi), -static_cast<__int128>(A.Lo),
                   A.Saturated, anyInfBound(A, A));
}

Interval isp::analysis::intervalSub(const Interval &A, const Interval &B) {
  return fromIdeal(static_cast<__int128>(A.Lo) - B.Hi,
                   static_cast<__int128>(A.Hi) - B.Lo,
                   A.Saturated || B.Saturated, anyInfBound(A, B));
}

Interval isp::analysis::intervalMul(const Interval &A, const Interval &B) {
  __int128 Corners[4] = {static_cast<__int128>(A.Lo) * B.Lo,
                         static_cast<__int128>(A.Lo) * B.Hi,
                         static_cast<__int128>(A.Hi) * B.Lo,
                         static_cast<__int128>(A.Hi) * B.Hi};
  return fromIdeal(*std::min_element(Corners, Corners + 4),
                   *std::max_element(Corners, Corners + 4),
                   A.Saturated || B.Saturated, anyInfBound(A, B));
}

Interval isp::analysis::intervalDiv(const Interval &A, const Interval &B) {
  bool Sat = A.Saturated || B.Saturated;
  Interval R = Interval::top();
  R.Saturated = Sat;
  if (B.isConst() && B.Lo > 0) {
    // Truncating division by a positive constant is monotone, never
    // wraps, and maps the sentinels onto sound bounds.
    R.Lo = A.Lo == NegInf ? NegInf : A.Lo / B.Lo;
    R.Hi = A.Hi == PosInf ? PosInf : A.Hi / B.Lo;
    return R;
  }
  if (B.Lo >= 1) {
    // Dividing by anything >= 1 moves values toward zero.
    R.Lo = std::min<int64_t>(A.Lo, 0);
    R.Hi = std::max<int64_t>(A.Hi, 0);
    return R;
  }
  return R;
}

Interval isp::analysis::intervalMod(const Interval &A, const Interval &B) {
  Interval R = Interval::top();
  R.Saturated = A.Saturated || B.Saturated;
  if (B.Lo < 1)
    return R; // divisor may be <= 0: runtime error or sign surprises
  // The remainder takes the dividend's sign with magnitude below the
  // divisor; it re-normalizes the value, so upstream saturation stops
  // mattering and the flag is cleared.
  R.Saturated = false;
  int64_t Mag = B.Hi == PosInf ? PosInf - 1 : B.Hi - 1;
  if (A.Lo >= 0) {
    R.Lo = 0;
    R.Hi = std::min(A.Hi, Mag);
  } else {
    R.Lo = -Mag;
    R.Hi = Mag;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Block-local symbolic values (base provenance + branch conditions)
//===----------------------------------------------------------------------===//

namespace {

/// A shallow symbolic value for one operand-stack slot: enough to name
/// indirect-access bases (LoadLocal / LoadGlobal), recognize counting
/// increments (local + constant), and carry comparison operands to the
/// branch that consumes them.
struct SymVal {
  enum class K : uint8_t { Unknown, Const, Local, GlobalCell, AddConst, Cmp };
  K Kind = K::Unknown;
  int64_t C = 0;     ///< Const value / GlobalCell cell / AddConst addend
  uint32_t Slot = 0; ///< Local / AddConst slot
  // Cmp payload: both operands restricted to Local-or-Const.
  Op CmpOp = Op::Nop;
  bool LhsIsLocal = false;
  bool RhsIsLocal = false;
  uint32_t LhsSlot = 0;
  uint32_t RhsSlot = 0;
  int64_t LhsC = 0;
  int64_t RhsC = 0;

  bool readsSlot(uint32_t S) const {
    switch (Kind) {
    case K::Local:
    case K::AddConst:
      return Slot == S;
    case K::Cmp:
      return (LhsIsLocal && LhsSlot == S) || (RhsIsLocal && RhsSlot == S);
    default:
      return false;
    }
  }
};

/// Symbolic operand stack for one basic block. Entry values are
/// Unknown; callers inspect the stack (peek) *before* stepping each
/// instruction.
class SymSim {
public:
  explicit SymSim(size_t EntryDepth) : Stack(EntryDepth) {}

  /// Value at \p FromTop positions below the top (0 = top).
  SymVal peek(size_t FromTop) const {
    return FromTop < Stack.size() ? Stack[Stack.size() - 1 - FromTop]
                                  : SymVal();
  }

  void step(const Instr &I) {
    StackEffect Eff = stackEffect(I);
    std::vector<SymVal> Popped;
    for (int P = 0; P != Eff.Pops && !Stack.empty(); ++P) {
      Popped.push_back(Stack.back());
      Stack.pop_back();
    }
    // Popped[0] is the old top (the rhs of binary operators).
    SymVal Out; // Unknown unless a rule below applies
    switch (I.Opcode) {
    case Op::PushConst:
      Out.Kind = SymVal::K::Const;
      Out.C = I.A;
      break;
    case Op::LoadLocal:
      Out.Kind = SymVal::K::Local;
      Out.Slot = static_cast<uint32_t>(I.A);
      break;
    case Op::LoadGlobal:
      Out.Kind = SymVal::K::GlobalCell;
      Out.C = I.A;
      break;
    case Op::Add:
    case Op::Sub:
      if (Popped.size() == 2)
        Out = foldAdd(Popped[1], Popped[0], I.Opcode == Op::Sub);
      break;
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
      if (Popped.size() == 2)
        Out = foldCmp(I.Opcode, Popped[1], Popped[0]);
      break;
    case Op::StoreLocal:
      // The slot's old value is gone: symbolic references to it die.
      for (SymVal &V : Stack)
        if (V.readsSlot(static_cast<uint32_t>(I.A)))
          V = SymVal();
      break;
    default:
      break;
    }
    for (int P = 0; P != Eff.Pushes; ++P)
      Stack.push_back(Out);
  }

private:
  static SymVal foldAdd(const SymVal &L, const SymVal &R, bool Sub) {
    SymVal Out;
    auto Make = [&Out](uint32_t Slot, int64_t C) {
      Out.Kind = C == 0 ? SymVal::K::Local : SymVal::K::AddConst;
      Out.Slot = Slot;
      Out.C = C;
    };
    if (L.Kind == SymVal::K::Const && R.Kind == SymVal::K::Const) {
      int64_t V = 0;
      bool Ov = Sub ? __builtin_sub_overflow(L.C, R.C, &V)
                    : __builtin_add_overflow(L.C, R.C, &V);
      if (!Ov) {
        Out.Kind = SymVal::K::Const;
        Out.C = V;
      }
      return Out;
    }
    if (L.Kind == SymVal::K::Local && R.Kind == SymVal::K::Const) {
      int64_t C = R.C;
      if (Sub && __builtin_sub_overflow(int64_t(0), R.C, &C))
        return Out;
      Make(L.Slot, C);
      return Out;
    }
    if (!Sub && L.Kind == SymVal::K::Const && R.Kind == SymVal::K::Local)
      Make(R.Slot, L.C);
    return Out;
  }

  static SymVal foldCmp(Op O, const SymVal &L, const SymVal &R) {
    auto Side = [](const SymVal &V, bool &IsLocal, uint32_t &Slot,
                   int64_t &C) {
      if (V.Kind == SymVal::K::Local) {
        IsLocal = true;
        Slot = V.Slot;
        return true;
      }
      if (V.Kind == SymVal::K::Const) {
        IsLocal = false;
        C = V.C;
        return true;
      }
      return false;
    };
    SymVal Cmp;
    Cmp.Kind = SymVal::K::Cmp;
    Cmp.CmpOp = O;
    if (Side(L, Cmp.LhsIsLocal, Cmp.LhsSlot, Cmp.LhsC) &&
        Side(R, Cmp.RhsIsLocal, Cmp.RhsSlot, Cmp.RhsC))
      return Cmp;
    return SymVal();
  }

  std::vector<SymVal> Stack;
};

//===----------------------------------------------------------------------===//
// Interprocedural summaries
//===----------------------------------------------------------------------===//

/// Parameter/return interval summaries shared across the per-function
/// solves, joined over all call/spawn sites with per-bound widening so
/// the interprocedural rounds terminate.
struct InterState {
  struct FnSummary {
    std::vector<Interval> Params;
    std::vector<bool> ParamSeen;
    std::vector<unsigned> ParamGrowth;
    Interval Return;
    bool ReturnSeen = false;
    unsigned ReturnGrowth = 0;
    bool Called = false;
  };
  std::vector<FnSummary> Fns;
  bool Changed = false;

  /// Joins \p V into \p Into; after three growths the still-moving
  /// bound widens to its infinity.
  void joinWiden(Interval &Into, bool &Seen, unsigned &Growth,
                 const Interval &V) {
    if (!Seen) {
      Into = V;
      Seen = true;
      Changed = true;
      return;
    }
    Interval J = intervalJoin(Into, V);
    if (J == Into)
      return;
    if (++Growth > 3) {
      if (J.Lo < Into.Lo)
        J.Lo = NegInf;
      if (J.Hi > Into.Hi)
        J.Hi = PosInf;
    }
    Into = J;
    Changed = true;
  }

  void markCalled(size_t Callee) {
    if (Callee < Fns.size() && !Fns[Callee].Called) {
      Fns[Callee].Called = true;
      Changed = true;
    }
  }

  void joinParam(size_t Callee, size_t Idx, const Interval &V) {
    if (Callee >= Fns.size())
      return;
    FnSummary &S = Fns[Callee];
    if (Idx >= S.Params.size())
      return;
    bool Seen = S.ParamSeen[Idx];
    joinWiden(S.Params[Idx], Seen, S.ParamGrowth[Idx], V);
    S.ParamSeen[Idx] = Seen;
  }
};

//===----------------------------------------------------------------------===//
// Intraprocedural dataflow problem
//===----------------------------------------------------------------------===//

struct RangeState {
  bool Reached = false;
  std::vector<Interval> Locals;
  std::vector<Interval> Stack;
};

class RangeProblem {
public:
  using State = RangeState;

  RangeProblem(const Program &Prog, size_t FnIndex, InterState &Inter)
      : FnIndex(FnIndex), F(Prog.Functions[FnIndex]), Inter(Inter) {
    // Widening landmarks: the function's literal constants (loop bounds
    // live here as comparison operands). Widening jumps to the nearest
    // landmark first and to infinity only past the last one, so a bound
    // chasing a constant-bounded counter lands on the bound instead of
    // degrading to +inf (which no later branch may re-refine).
    for (const Instr &I : F.Code)
      if (I.Opcode == Op::PushConst && I.A != NegInf && I.A != PosInf)
        Landmarks.push_back(I.A);
    std::sort(Landmarks.begin(), Landmarks.end());
    Landmarks.erase(std::unique(Landmarks.begin(), Landmarks.end()),
                    Landmarks.end());
  }

  /// When set, transfer records per-site facts (final sweep only).
  RangeResult *Record = nullptr;
  /// True only during the per-round summary sweep: call/spawn argument
  /// and return intervals fold into InterState once per round at the
  /// intraprocedural fixpoint — folding them on every worklist
  /// re-evaluation would feed the summary widening a growing counter's
  /// intermediate states and widen precise parameters to infinity.
  bool CollectInter = false;
  /// The CFG the current solve runs over; set before each solve (used
  /// by the join-point widening policy).
  const CFG *G = nullptr;

  void resetPerSolve() const {
    JoinCounts.clear();
    BranchSyms.clear();
  }

  State boundary() const {
    State S;
    S.Reached = true;
    S.Locals.assign(F.NumLocals, Interval::top());
    const InterState::FnSummary &Sum = Inter.Fns[FnIndex];
    for (size_t P = 0; P < F.NumParams && P < Sum.Params.size(); ++P)
      S.Locals[P] = Sum.Params[P];
    return S;
  }
  State top() const { return State(); }

  State transfer(const CFG &Graph, uint32_t Block, State In) const {
    if (!In.Reached)
      return In;
    const BasicBlock &B = Graph.block(Block);
    SymSim Syms(In.Stack.size());
    State S = std::move(In);
    for (size_t Pc = B.Begin; Pc != B.End; ++Pc) {
      const Instr &I = F.Code[Pc];
      stepInterval(S, Syms, I, Pc, Block, B);
      Syms.step(I);
    }
    return S;
  }

  void refineEdge(const CFG &Graph, uint32_t Block, size_t SuccIdx,
                  State &Edge) const {
    if (!Edge.Reached)
      return;
    const BasicBlock &B = Graph.block(Block);
    if (B.End == B.Begin)
      return;
    const Instr &Last = F.Code[B.End - 1];
    if (Last.Opcode != Op::JumpIfFalse && Last.Opcode != Op::JumpIfTrue)
      return;
    auto It = BranchSyms.find(Block);
    if (It == BranchSyms.end() || It->second.Kind != SymVal::K::Cmp)
      return;
    // Succs[0] is the jump target, Succs[1] the fallthrough (CFG.cpp
    // edge order). JumpIfFalse jumps when the condition is false.
    bool TruthOnTarget = Last.Opcode == Op::JumpIfTrue;
    bool Truth = SuccIdx == 0 ? TruthOnTarget : !TruthOnTarget;
    applyRefinement(Edge, It->second, Truth);
  }

  bool joinAt(uint32_t Block, State &Into, const State &From) const {
    if (!From.Reached)
      return false;
    if (!Into.Reached) {
      Into = From;
      return true;
    }
    if (Into.Locals.size() != From.Locals.size() ||
        Into.Stack.size() != From.Stack.size()) {
      // Cannot happen on depth-verified functions; degrade safely.
      bool Changed = false;
      for (Interval &V : Into.Locals)
        if (!V.isTop()) {
          V = Interval::top();
          Changed = true;
        }
      return Changed;
    }
    // Widening only at multi-predecessor blocks inside cycles keeps
    // single-predecessor loop bodies at their branch-refined precision;
    // every reachable cycle contains such a block (its header has an
    // entry edge plus a back edge), so chains still stabilize. Only
    // *changing* joins count toward the trigger — the worklist calls
    // joinAt many times with already-subsumed states.
    bool WidenHere = G != nullptr && G->block(Block).Preds.size() >= 2 &&
                     G->inCycle(Block);
    bool Widen = WidenHere && JoinCounts[Block] > 3;
    bool Changed = false;
    auto JoinOne = [this, Widen, &Changed](Interval &IntoV,
                                           const Interval &FromV) {
      Interval J = intervalJoin(IntoV, FromV);
      if (J == IntoV)
        return;
      if (Widen) {
        // Each widened change moves to a strictly larger landmark or an
        // infinity, so chains stay bounded by the landmark count.
        if (J.Lo < IntoV.Lo) {
          auto It = std::upper_bound(Landmarks.begin(), Landmarks.end(),
                                     J.Lo);
          J.Lo = It != Landmarks.begin() ? *std::prev(It) : NegInf;
        }
        if (J.Hi > IntoV.Hi) {
          auto It = std::lower_bound(Landmarks.begin(), Landmarks.end(),
                                     J.Hi);
          J.Hi = It != Landmarks.end() ? *It : PosInf;
        }
        if (J == IntoV)
          return;
      }
      IntoV = J;
      Changed = true;
    };
    for (size_t L = 0; L != Into.Locals.size(); ++L)
      JoinOne(Into.Locals[L], From.Locals[L]);
    for (size_t P = 0; P != Into.Stack.size(); ++P)
      JoinOne(Into.Stack[P], From.Stack[P]);
    if (Changed && WidenHere)
      ++JoinCounts[Block];
    return Changed;
  }

private:
  static Interval popI(State &S) {
    if (S.Stack.empty())
      return Interval::top();
    Interval V = S.Stack.back();
    S.Stack.pop_back();
    return V;
  }

  void stepInterval(State &S, const SymSim &Syms, const Instr &I, size_t Pc,
                    uint32_t Block, const BasicBlock &B) const {
    switch (I.Opcode) {
    case Op::Nop:
    case Op::BasicBlock:
    case Op::Jump:
      break;
    case Op::PushConst:
      S.Stack.push_back(I.A == NegInf || I.A == PosInf
                            ? Interval::top()
                            : Interval::constant(I.A));
      break;
    case Op::Pop:
      popI(S);
      break;
    case Op::LoadLocal:
      S.Stack.push_back(static_cast<size_t>(I.A) < S.Locals.size()
                            ? S.Locals[static_cast<size_t>(I.A)]
                            : Interval::top());
      break;
    case Op::StoreLocal: {
      Interval V = popI(S);
      if (static_cast<size_t>(I.A) < S.Locals.size())
        S.Locals[static_cast<size_t>(I.A)] = V;
      break;
    }
    case Op::LoadGlobal:
      S.Stack.push_back(Interval::top());
      break;
    case Op::StoreGlobal:
      popI(S);
      break;
    case Op::LoadIndirect: {
      Interval Index = popI(S);
      popI(S); // base
      if (Record != nullptr)
        recordIndirect(Pc, Index, /*IsStore=*/false, Syms.peek(1));
      S.Stack.push_back(Interval::top());
      break;
    }
    case Op::StoreIndirect: {
      popI(S); // value
      Interval Index = popI(S);
      popI(S); // base
      if (Record != nullptr)
        recordIndirect(Pc, Index, /*IsStore=*/true, Syms.peek(2));
      break;
    }
    case Op::AllocaArray: {
      Interval Size = popI(S);
      if (Record != nullptr)
        Record->Allocas[{FnIndex, Pc}] = AllocaSiteRange{Size};
      S.Stack.push_back(Interval::top());
      break;
    }
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod: {
      Interval R = popI(S);
      Interval L = popI(S);
      Interval Out;
      switch (I.Opcode) {
      case Op::Add:
        Out = intervalAdd(L, R);
        break;
      case Op::Sub:
        Out = intervalSub(L, R);
        break;
      case Op::Mul:
        Out = intervalMul(L, R);
        break;
      case Op::Div:
        Out = intervalDiv(L, R);
        break;
      default:
        Out = intervalMod(L, R);
        break;
      }
      S.Stack.push_back(Out);
      break;
    }
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
    case Op::Not:
    case Op::ToBool:
      for (int P = 0; P != stackEffect(I).Pops; ++P)
        popI(S);
      S.Stack.push_back(Interval::range(0, 1));
      break;
    case Op::Neg:
      S.Stack.push_back(intervalNeg(popI(S)));
      break;
    case Op::JumpIfFalse:
    case Op::JumpIfTrue:
      if (Pc == B.End - 1)
        BranchSyms[Block] = Syms.peek(0);
      popI(S);
      break;
    case Op::Call:
    case Op::Spawn: {
      size_t Callee = static_cast<size_t>(I.A);
      unsigned NumArgs = static_cast<unsigned>(I.B);
      if (CollectInter)
        Inter.markCalled(Callee);
      // Arguments pop in reverse: the top of the stack is the last.
      for (unsigned A = 0; A != NumArgs; ++A) {
        Interval Arg = popI(S);
        if (CollectInter)
          Inter.joinParam(Callee, NumArgs - 1 - A, Arg);
      }
      if (I.Opcode == Op::Spawn)
        S.Stack.push_back(Interval::range(0, PosInf)); // thread id
      else if (Callee < Inter.Fns.size() && Inter.Fns[Callee].ReturnSeen)
        S.Stack.push_back(Inter.Fns[Callee].Return);
      else
        S.Stack.push_back(Interval::top());
      break;
    }
    case Op::CallBuiltin: {
      unsigned NumArgs = static_cast<unsigned>(I.B);
      Builtin Bi = static_cast<Builtin>(I.A);
      std::vector<Interval> Args(NumArgs, Interval::top());
      for (unsigned A = 0; A != NumArgs; ++A)
        Args[NumArgs - 1 - A] = popI(S); // Args[i] = i-th argument
      if (Record != nullptr &&
          (Bi == Builtin::SysRead || Bi == Builtin::SysWrite) &&
          NumArgs == 3) {
        KernelWriteSite KW;
        SymVal Buf = Syms.peek(1); // n on top, then buf, then fd
        if (Buf.Kind == SymVal::K::GlobalCell)
          KW.BufGlobalCell = Buf.C;
        KW.Count = Args[2];
        Record->KernelWrites[{FnIndex, Pc}] = KW;
      }
      S.Stack.push_back(builtinResult(Bi, Args));
      break;
    }
    case Op::Return: {
      Interval V = popI(S);
      if (CollectInter) {
        InterState::FnSummary &Sum = Inter.Fns[FnIndex];
        Inter.joinWiden(Sum.Return, Sum.ReturnSeen, Sum.ReturnGrowth, V);
      }
      break;
    }
    }
  }

  static Interval builtinResult(Builtin Bi,
                                const std::vector<Interval> &Args) {
    switch (Bi) {
    case Builtin::Print:
      return Args.empty() ? Interval::top() : Args[0];
    case Builtin::Store:
      return Args.size() == 2 ? Args[1] : Interval::top();
    case Builtin::SysRead:
    case Builtin::SysWrite:
      return Args.size() == 3 ? Args[2] : Interval::top();
    case Builtin::Rand: {
      // rand(b) draws from [0, b) for b >= 1 and returns 0 otherwise,
      // so the result is always non-negative.
      Interval R = Interval::range(0, PosInf);
      if (Args.size() == 1 && Args[0].Lo >= 1 && Args[0].Hi != PosInf)
        R.Hi = Args[0].Hi - 1;
      return R;
    }
    case Builtin::Free:
    case Builtin::SemWait:
    case Builtin::SemPost:
    case Builtin::LockAcquire:
    case Builtin::LockRelease:
    case Builtin::Yield:
      return Interval::constant(0);
    case Builtin::SemCreate:
    case Builtin::LockCreate:
    case Builtin::ThreadId:
    case Builtin::Alloc:
      return Interval::range(0, PosInf);
    case Builtin::Join:
    case Builtin::Load:
      break;
    }
    return Interval::top();
  }

  void recordIndirect(size_t Pc, const Interval &Index, bool IsStore,
                      const SymVal &BaseSym) const {
    IndirectSiteRange Site;
    Site.Index = Index;
    Site.IsStore = IsStore;
    if (BaseSym.Kind == SymVal::K::Local)
      Site.BaseLocalSlot = BaseSym.Slot;
    else if (BaseSym.Kind == SymVal::K::GlobalCell)
      Site.BaseGlobalCell = BaseSym.C;
    Record->Sites[{FnIndex, Pc}] = Site;
  }

  void applyRefinement(State &Edge, const SymVal &Cmp, bool Truth) const {
    Op O = Cmp.CmpOp;
    if (!Truth) {
      switch (O) {
      case Op::Lt:
        O = Op::Ge;
        break;
      case Op::Le:
        O = Op::Gt;
        break;
      case Op::Gt:
        O = Op::Le;
        break;
      case Op::Ge:
        O = Op::Lt;
        break;
      case Op::Eq:
        O = Op::Ne;
        break;
      case Op::Ne:
        O = Op::Eq;
        break;
      default:
        return;
      }
    }
    auto Get = [&Edge](bool IsLocal, uint32_t Slot, int64_t C) {
      if (IsLocal)
        return Slot < Edge.Locals.size() ? Edge.Locals[Slot]
                                         : Interval::top();
      return Interval::constant(C);
    };
    Interval L = Get(Cmp.LhsIsLocal, Cmp.LhsSlot, Cmp.LhsC);
    Interval R = Get(Cmp.RhsIsLocal, Cmp.RhsSlot, Cmp.RhsC);
    Interval NewL = L;
    Interval NewR = R;
    // Bounds refined here hold for the *concrete* (possibly wrapped)
    // value, because the branch tested exactly that value — clamping is
    // sound even on saturated inputs.
    switch (O) {
    case Op::Lt: // L < R
      if (R.Hi != PosInf)
        NewL.Hi = std::min(NewL.Hi, R.Hi - 1);
      if (L.Lo != NegInf)
        NewR.Lo = std::max(NewR.Lo, L.Lo + 1);
      break;
    case Op::Le:
      NewL.Hi = std::min(NewL.Hi, R.Hi);
      NewR.Lo = std::max(NewR.Lo, L.Lo);
      break;
    case Op::Gt: // L > R
      if (R.Lo != NegInf)
        NewL.Lo = std::max(NewL.Lo, R.Lo + 1);
      if (L.Hi != PosInf)
        NewR.Hi = std::min(NewR.Hi, L.Hi - 1);
      break;
    case Op::Ge:
      NewL.Lo = std::max(NewL.Lo, R.Lo);
      NewR.Hi = std::min(NewR.Hi, L.Hi);
      break;
    case Op::Eq:
      NewL.Lo = std::max(L.Lo, R.Lo);
      NewL.Hi = std::min(L.Hi, R.Hi);
      NewL.Saturated = L.Saturated || R.Saturated;
      NewR = NewL;
      break;
    case Op::Ne:
      return; // no interval refinement from disequality
    default:
      return;
    }
    if (NewL.Lo > NewL.Hi || NewR.Lo > NewR.Hi) {
      Edge.Reached = false; // branch provably never taken
      return;
    }
    if (Cmp.LhsIsLocal && Cmp.LhsSlot < Edge.Locals.size())
      Edge.Locals[Cmp.LhsSlot] = NewL;
    if (Cmp.RhsIsLocal && Cmp.RhsSlot < Edge.Locals.size())
      Edge.Locals[Cmp.RhsSlot] = NewR;
  }

  size_t FnIndex;
  const Function &F;
  InterState &Inter;
  std::vector<int64_t> Landmarks;
  mutable std::map<uint32_t, unsigned> JoinCounts;
  mutable std::map<uint32_t, SymVal> BranchSyms;
};

} // namespace

//===----------------------------------------------------------------------===//
// Interprocedural driver
//===----------------------------------------------------------------------===//

RangeResult isp::analysis::computeRanges(const Program &Prog) {
  obs::ScopedTimer Timer(
      obs::statsEnabled()
          ? &obs::Registry::get().counter("analysis.range_ns")
          : nullptr);
  RangeResult Result;

  const size_t NumFns = Prog.Functions.size();
  std::vector<bool> Analyzable(NumFns, false);
  std::deque<std::optional<CFG>> Graphs;
  for (size_t Fn = 0; Fn != NumFns; ++Fn) {
    Graphs.emplace_back();
    std::vector<VerifyError> Scratch;
    if (!verifyFunctionStructure(Prog, Fn, Scratch))
      continue;
    Graphs[Fn].emplace(Prog.Functions[Fn]);
    if (!computeBlockEntryDepths(*Graphs[Fn], Fn, nullptr)) {
      Graphs[Fn].reset();
      continue;
    }
    Analyzable[Fn] = true;
  }

  InterState Inter;
  Inter.Fns.resize(NumFns);
  for (size_t Fn = 0; Fn != NumFns; ++Fn) {
    InterState::FnSummary &S = Inter.Fns[Fn];
    size_t NumParams = Prog.Functions[Fn].NumParams;
    S.Params.assign(NumParams, Interval::top());
    S.ParamSeen.assign(NumParams, false);
    S.ParamGrowth.assign(NumParams, 0);
  }
  if (Prog.EntryIndex < NumFns)
    Inter.Fns[Prog.EntryIndex].Called = true;

  std::deque<RangeProblem> Problems;
  for (size_t Fn = 0; Fn != NumFns; ++Fn)
    Problems.emplace_back(Prog, Fn, Inter);

  // Interprocedural rounds terminate because summaries only grow and
  // every bound widens to an infinity after three growths; the cap is a
  // pure safety net.
  for (unsigned Round = 0; Round != 1000; ++Round) {
    Inter.Changed = false;
    for (size_t Fn = 0; Fn != NumFns; ++Fn) {
      if (!Analyzable[Fn] || !Inter.Fns[Fn].Called)
        continue;
      Problems[Fn].G = &*Graphs[Fn];
      Problems[Fn].resetPerSolve();
      std::vector<RangeState> States =
          solveDataflowEdges(*Graphs[Fn], Problems[Fn]);
      // Summary sweep at the fixpoint: each call site contributes its
      // stabilized argument intervals exactly once per round.
      Problems[Fn].CollectInter = true;
      for (uint32_t B = 0; B != Graphs[Fn]->numBlocks(); ++B)
        if (States[B].Reached)
          (void)Problems[Fn].transfer(*Graphs[Fn], B, States[B]);
      Problems[Fn].CollectInter = false;
    }
    if (!Inter.Changed)
      break;
  }

  // Recording sweep over the stabilized summaries: re-solve, then run
  // one recording transfer per reachable block at the fixpoint so each
  // site's recorded interval is deterministic.
  for (size_t Fn = 0; Fn != NumFns; ++Fn) {
    if (!Analyzable[Fn] || !Inter.Fns[Fn].Called)
      continue;
    Problems[Fn].G = &*Graphs[Fn];
    Problems[Fn].resetPerSolve();
    std::vector<RangeState> States =
        solveDataflowEdges(*Graphs[Fn], Problems[Fn]);
    Problems[Fn].Record = &Result;
    for (uint32_t B = 0; B != Graphs[Fn]->numBlocks(); ++B)
      if (States[B].Reached)
        (void)Problems[Fn].transfer(*Graphs[Fn], B, States[B]);
    Problems[Fn].Record = nullptr;
  }

  Result.Functions.resize(NumFns);
  for (size_t Fn = 0; Fn != NumFns; ++Fn) {
    Result.Functions[Fn].Params = Inter.Fns[Fn].Params;
    Result.Functions[Fn].Return =
        Inter.Fns[Fn].ReturnSeen ? Inter.Fns[Fn].Return : Interval::top();
    Result.Functions[Fn].Called = Inter.Fns[Fn].Called;
  }

  for (const auto &Entry : Result.Sites)
    if (!Entry.second.Index.isTop())
      ++Result.Facts;
  for (const auto &Entry : Result.Allocas)
    if (!Entry.second.Size.isTop())
      ++Result.Facts;
  for (const FunctionRanges &FR : Result.Functions) {
    for (const Interval &P : FR.Params)
      if (!P.isTop())
        ++Result.Facts;
    if (!FR.Return.isTop())
      ++Result.Facts;
  }
  ISP_STATS({
    obs::Registry::get().counter("analysis.range_facts").add(Result.Facts);
  });
  return Result;
}

//===----------------------------------------------------------------------===//
// Covered-read certificate
//===----------------------------------------------------------------------===//

namespace {

/// Dom[B][I] = block I dominates block B. Unreachable blocks keep the
/// all-true initialization (vacuous: they never execute).
std::vector<std::vector<bool>> computeDominators(const CFG &G) {
  const uint32_t N = G.numBlocks();
  std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, true));
  if (N == 0)
    return Dom;
  Dom[G.entry()].assign(N, false);
  Dom[G.entry()][G.entry()] = true;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : G.rpo()) {
      if (B == G.entry() || !G.reachable(B))
        continue;
      std::vector<bool> New(N, true);
      bool AnyPred = false;
      for (uint32_t P : G.block(B).Preds) {
        if (!G.reachable(P))
          continue;
        AnyPred = true;
        for (uint32_t I = 0; I != N; ++I)
          New[I] = New[I] && Dom[P][I];
      }
      if (!AnyPred)
        New.assign(N, false);
      New[B] = true;
      if (New != Dom[B]) {
        Dom[B] = std::move(New);
        Changed = true;
      }
    }
  }
  return Dom;
}

/// Finds the exit blocks of certified counting fill loops over frame
/// array \p A: loops of the shape
///
///   iv = 0; while (iv < Cells) { a[iv] = ...; iv = iv + 1; }
///
/// where the head's branch condition is exactly Lt(iv, Cells), the body
/// is a single block that stores through the array base at index iv and
/// increments iv once, and every other edge into the head delivers
/// iv = 0. At such a loop's exit every cell of [0, Cells) has been
/// written, so any dominated in-bounds re-read is redundant.
std::vector<uint32_t> certifiedFillExits(const Function &F, const CFG &G,
                                         const std::vector<int> &Depths,
                                         const std::vector<std::vector<bool>> &Dom,
                                         const FrameArray &A) {
  std::vector<uint32_t> Exits;
  for (uint32_t H = 0; H != G.numBlocks(); ++H) {
    if (!G.reachable(H))
      continue;
    const BasicBlock &HB = G.block(H);
    if (HB.End == HB.Begin ||
        F.Code[HB.End - 1].Opcode != Op::JumpIfFalse ||
        HB.Succs.size() != 2)
      continue;
    uint32_t E = HB.Succs[0]; // jump target: loop exit (condition false)
    uint32_t B = HB.Succs[1]; // fallthrough: loop body
    if (E == B || E == H || B == H)
      continue;

    // The head must compute exactly iv < Cells, with no store to iv on
    // the way (SymSim invalidates comparison operands on StoreLocal, so
    // an intervening store breaks the Cmp shape).
    SymSim HeadSyms(static_cast<size_t>(Depths[H]));
    SymVal Branch;
    for (size_t Pc = HB.Begin; Pc != HB.End; ++Pc) {
      if (Pc == HB.End - 1)
        Branch = HeadSyms.peek(0);
      HeadSyms.step(F.Code[Pc]);
    }
    if (Branch.Kind != SymVal::K::Cmp || Branch.CmpOp != Op::Lt ||
        !Branch.LhsIsLocal || Branch.RhsIsLocal ||
        Branch.RhsC != static_cast<int64_t>(A.Cells))
      continue;
    uint32_t Iv = Branch.LhsSlot;
    if (Iv == A.Slot)
      continue;
    bool HeadStoresIv = false;
    for (size_t Pc = HB.Begin; Pc != HB.End; ++Pc)
      if (F.Code[Pc].Opcode == Op::StoreLocal &&
          static_cast<uint32_t>(F.Code[Pc].A) == Iv)
        HeadStoresIv = true;
    if (HeadStoresIv)
      continue;

    // The body must be a single self-contained block: H -> B -> H.
    const BasicBlock &BB = G.block(B);
    if (BB.Preds.size() != 1 || BB.Preds[0] != H || BB.Succs.size() != 1 ||
        BB.Succs[0] != H)
      continue;

    // Scan the body: exactly one increment of iv (iv = iv + 1), exactly
    // one store through the array base and its index must be iv, and
    // the store must precede the increment (so iteration k writes cell
    // k, not k+1).
    SymSim BodySyms(static_cast<size_t>(Depths[B]));
    size_t IncPos = SIZE_MAX;
    size_t StorePos = SIZE_MAX;
    size_t IvStores = 0;
    size_t BaseStores = 0;
    bool Bad = false;
    for (size_t Pc = BB.Begin; Pc != BB.End && !Bad; ++Pc) {
      const Instr &I = F.Code[Pc];
      if (I.Opcode == Op::StoreLocal && static_cast<uint32_t>(I.A) == Iv) {
        ++IvStores;
        IncPos = Pc;
        SymVal V = BodySyms.peek(0);
        if (!(V.Kind == SymVal::K::AddConst && V.Slot == Iv && V.C == 1))
          Bad = true;
      }
      if (I.Opcode == Op::StoreIndirect) {
        SymVal Base = BodySyms.peek(2);
        SymVal Index = BodySyms.peek(1);
        if (Base.Kind == SymVal::K::Local && Base.Slot == A.Slot) {
          ++BaseStores;
          StorePos = Pc;
          if (!(Index.Kind == SymVal::K::Local && Index.Slot == Iv))
            Bad = true;
        }
      }
      BodySyms.step(I);
    }
    if (Bad || IvStores != 1 || BaseStores != 1 || StorePos > IncPos)
      continue;

    // The exit must not be reachable around the loop test.
    if (G.block(E).Preds.size() != 1 || G.block(E).Preds[0] != H)
      continue;

    // Every non-body edge into the head must deliver iv = 0: the
    // predecessor's last store to iv stores literal 0.
    bool EntryOk = true;
    bool AnyEntry = false;
    for (uint32_t P : HB.Preds) {
      if (P == B)
        continue;
      if (!G.reachable(P))
        continue;
      AnyEntry = true;
      const BasicBlock &PB = G.block(P);
      SymSim PredSyms(static_cast<size_t>(Depths[P]));
      bool SawZeroStore = false;
      bool LastIsZero = false;
      for (size_t Pc = PB.Begin; Pc != PB.End; ++Pc) {
        const Instr &I = F.Code[Pc];
        if (I.Opcode == Op::StoreLocal &&
            static_cast<uint32_t>(I.A) == Iv) {
          SymVal V = PredSyms.peek(0);
          SawZeroStore = true;
          LastIsZero = V.Kind == SymVal::K::Const && V.C == 0;
        }
        PredSyms.step(I);
      }
      if (!SawZeroStore || !LastIsZero) {
        EntryOk = false;
        break;
      }
    }
    if (!EntryOk || !AnyEntry)
      continue;

    // The array must already exist when the loop runs.
    uint32_t DefBlock = G.blockOf(A.AllocaPc + 1);
    if (!Dom[H][DefBlock])
      continue;

    Exits.push_back(E);
  }
  return Exits;
}

/// Program-wide containment: no guest or kernel store anywhere in the
/// live (called) program can land outside tracked object storage — the
/// precondition for *any* covered-read certificate. Loads matter too:
/// a wild read of a candidate cell would update its read timestamp,
/// making the suppressed event observable.
bool allAccessesContained(const Program &Prog, const PointsToResult &PT,
                          const RangeResult &RR) {
  constexpr int64_t MaxGlobalIndex = int64_t(1) << 22;
  for (size_t Fn = 0; Fn != Prog.Functions.size(); ++Fn) {
    if (Fn >= RR.Functions.size() || !RR.Functions[Fn].Called)
      continue; // never executes
    const Function &F = Prog.Functions[Fn];
    for (size_t Pc = 0; Pc != F.Code.size(); ++Pc) {
      const Instr &I = F.Code[Pc];
      switch (I.Opcode) {
      case Op::CallBuiltin: {
        Builtin Bi = static_cast<Builtin>(I.A);
        if (Bi == Builtin::Load || Bi == Builtin::Store)
          return false; // arbitrary-address access
        if (Bi != Builtin::SysRead && Bi != Builtin::SysWrite)
          break;
        // The kernel side reads or writes buf[0 .. n-1]: buf must be
        // the immutable base cell of a global array and n bounded by
        // its extent.
        auto KW = RR.KernelWrites.find({Fn, Pc});
        if (KW == RR.KernelWrites.end() ||
            KW->second.BufGlobalCell < 0)
          return false;
        const GlobalArrayInfo *GA = nullptr;
        for (const GlobalArrayInfo &Cand : Prog.GlobalArrays)
          if (static_cast<int64_t>(Cand.Cell) == KW->second.BufGlobalCell)
            GA = &Cand;
        if (GA == nullptr)
          return false;
        const Interval &N = KW->second.Count;
        if (N.Hi == PosInf || N.Hi < 0 ||
            static_cast<uint64_t>(N.Hi) > GA->Cells)
          return false;
        // The base cell must keep its loader-installed value.
        for (size_t G2 = 0; G2 != Prog.Functions.size(); ++G2) {
          if (G2 >= RR.Functions.size() || !RR.Functions[G2].Called)
            continue;
          for (const Instr &I2 : Prog.Functions[G2].Code)
            if (I2.Opcode == Op::StoreGlobal &&
                I2.A == KW->second.BufGlobalCell)
              return false;
        }
        break;
      }
      case Op::LoadIndirect:
      case Op::StoreIndirect: {
        const IndirectSiteRange *Site = RR.site(Fn, Pc);
        const SiteFacts *Facts = PT.siteFacts(Fn, Pc);
        if (Site == nullptr || Facts == nullptr || !Facts->BaseKnown ||
            Facts->Objects.empty())
          return false;
        bool AllGlobal = true;
        bool AllKnown = true;
        uint64_t MinCells = UINT64_MAX;
        for (uint32_t Obj : Facts->Objects) {
          const AbstractObject &O = PT.Objects[Obj];
          AllGlobal &= O.K == AbstractObject::Kind::GlobalArray;
          if (O.Cells == 0)
            AllKnown = false;
          else
            MinCells = std::min(MinCells, O.Cells);
        }
        const Interval &Index = Site->Index;
        // Global-array bases with a bounded non-huge index cannot reach
        // the stack region (it starts far above the globals, and
        // negative indices wrap past the top of the address space), so
        // exact in-bounds is not required for them.
        bool GlobalContained =
            AllGlobal && Index.Hi != PosInf && Index.Hi <= MaxGlobalIndex;
        bool ExactContained = AllKnown && Index.within(MinCells);
        if (!GlobalContained && !ExactContained)
          return false;
        break;
      }
      default:
        break;
      }
    }
  }
  return true;
}

} // namespace

std::vector<std::pair<size_t, size_t>>
isp::analysis::coveredIndirectReads(const Program &Prog,
                                    const PointsToResult &PT,
                                    const EscapeResult &Esc,
                                    const RangeResult &RR) {
  std::vector<std::pair<size_t, size_t>> Covered;
  if (Esc.NeverEscaping.empty() || PT.HasWildStore)
    return Covered;
  if (!allAccessesContained(Prog, PT, RR))
    return Covered;

  for (const FrameArray &A : Esc.NeverEscaping) {
    if (A.Fn >= RR.Functions.size() || !RR.Functions[A.Fn].Called)
      continue;
    const Function &F = Prog.Functions[A.Fn];
    std::vector<VerifyError> Scratch;
    if (!verifyFunctionStructure(Prog, A.Fn, Scratch))
      continue;
    CFG G(F);
    std::optional<std::vector<int>> Depths =
        computeBlockEntryDepths(G, A.Fn, nullptr);
    if (!Depths)
      continue;
    // One activation = one array instance; a re-executed alloca would
    // make "the" array ambiguous within an activation.
    if (G.inCycle(G.blockOf(A.AllocaPc)))
      continue;
    std::vector<std::vector<bool>> Dom = computeDominators(G);
    std::vector<uint32_t> Exits = certifiedFillExits(F, G, *Depths, Dom, A);
    if (Exits.empty())
      continue;

    for (const auto &Entry : RR.Sites) {
      if (Entry.first.first != A.Fn || Entry.second.IsStore)
        continue;
      if (Entry.second.BaseLocalSlot != static_cast<int64_t>(A.Slot))
        continue;
      if (!Entry.second.Index.within(A.Cells))
        continue;
      uint32_t ReadBlock = G.blockOf(Entry.first.second);
      if (!G.reachable(ReadBlock))
        continue;
      bool Dominated = false;
      for (uint32_t E : Exits)
        Dominated |= Dom[ReadBlock][E];
      if (Dominated)
        Covered.push_back(Entry.first);
    }
  }
  return Covered;
}

//===----------------------------------------------------------------------===//
// Bounds lint
//===----------------------------------------------------------------------===//

std::string BoundsReport::render(const Program &Prog) const {
  std::string Out = formatString(
      "bounds lint: %llu warning(s)\n",
      static_cast<unsigned long long>(Warnings.size()));
  for (const BoundsWarning &W : Warnings) {
    const char *Name = W.Fn < Prog.Functions.size()
                           ? Prog.Functions[W.Fn].Name.c_str()
                           : "?";
    Out += formatString("  %s+%llu: %s\n", Name,
                        static_cast<unsigned long long>(W.Pc),
                        W.Message.c_str());
  }
  return Out;
}

namespace {

/// Human name for the object an index warning is about.
std::string objectName(const Program &Prog, const PointsToResult &PT,
                       const SiteFacts &Facts) {
  if (Facts.Objects.size() == 1) {
    const AbstractObject &O = PT.Objects[Facts.Objects[0]];
    switch (O.K) {
    case AbstractObject::Kind::GlobalArray:
      if (O.ArrayIndex < Prog.GlobalArrays.size())
        return "array '" + Prog.GlobalArrays[O.ArrayIndex].Name + "'";
      return "global array";
    case AbstractObject::Kind::AllocaSite:
      return "frame array";
    case AbstractObject::Kind::HeapSite:
      return "heap block";
    }
  }
  return "target object";
}

} // namespace

BoundsReport isp::analysis::runBoundsLint(const Program &Prog,
                                          const PointsToResult &PT,
                                          const RangeResult &RR) {
  obs::ScopedTimer Timer(
      obs::statsEnabled()
          ? &obs::Registry::get().counter("analysis.bounds_lint_ns")
          : nullptr);
  BoundsReport Report;
  for (const auto &Entry : RR.Sites) {
    const IndirectSiteRange &Site = Entry.second;
    const SiteFacts *Facts = PT.siteFacts(Entry.first.first,
                                          Entry.first.second);
    if (Facts == nullptr || !Facts->BaseKnown || Facts->Objects.empty())
      continue;
    const Interval &Index = Site.Index;
    const char *Access = Site.IsStore ? "store" : "load";
    if (Index.Hi < 0) {
      Report.Warnings.push_back(
          {Entry.first.first, Entry.first.second,
           formatString("%s index %s is always negative", Access,
                        Index.str().c_str())});
      continue;
    }
    bool AllKnown = true;
    uint64_t MaxExtent = 0;
    for (uint32_t Obj : Facts->Objects) {
      const AbstractObject &O = PT.Objects[Obj];
      if (O.Cells == 0)
        AllKnown = false;
      else
        MaxExtent = std::max(MaxExtent, O.Cells);
    }
    if (AllKnown && Index.Lo >= 0 &&
        static_cast<uint64_t>(Index.Lo) >= MaxExtent) {
      Report.Warnings.push_back(
          {Entry.first.first, Entry.first.second,
           formatString("%s index %s is out of bounds for %s (%llu cells)",
                        Access, Index.str().c_str(),
                        objectName(Prog, PT, *Facts).c_str(),
                        static_cast<unsigned long long>(MaxExtent))});
      continue;
    }
    if (Index.Saturated && !Index.isTop())
      Report.Warnings.push_back(
          {Entry.first.first, Entry.first.second,
           formatString("possible index overflow: %s index computation "
                        "may wrap (bounds %s)",
                        Access, Index.str().c_str())});
  }
  for (const auto &Entry : RR.Allocas) {
    const Interval &Size = Entry.second.Size;
    if (Size.Hi < 0)
      Report.Warnings.push_back(
          {Entry.first.first, Entry.first.second,
           formatString("alloca size %s is always negative",
                        Size.str().c_str())});
  }
  std::sort(Report.Warnings.begin(), Report.Warnings.end(),
            [](const BoundsWarning &L, const BoundsWarning &R) {
              return L.Fn != R.Fn ? L.Fn < R.Fn : L.Pc < R.Pc;
            });
  ISP_STATS({
    obs::Registry::get()
        .counter("analysis.bounds_warnings")
        .add(Report.Warnings.size());
  });
  return Report;
}

BoundsReport isp::analysis::runBoundsLint(const Program &Prog) {
  PointsToResult PT = computePointsTo(Prog);
  RangeResult RR = computeRanges(Prog);
  return runBoundsLint(Prog, PT, RR);
}

//===----------------------------------------------------------------------===//
// Static growth estimator
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned MaxDegree = 3;

} // namespace

std::map<RoutineId, unsigned> isp::analysis::estimateGrowth(
    const Program &Prog) {
  const size_t NumFns = Prog.Functions.size();
  std::vector<unsigned> LoopDepth(NumFns, 0); // max loop nesting per fn
  // Call sites: (caller, callee, loop depth at the site). Spawn is
  // excluded: the callee's work runs on another thread and does not
  // multiply the caller's own cost.
  std::vector<std::vector<std::pair<size_t, unsigned>>> Calls(NumFns);
  std::vector<bool> Analyzable(NumFns, false);

  for (size_t Fn = 0; Fn != NumFns; ++Fn) {
    const Function &F = Prog.Functions[Fn];
    std::vector<VerifyError> Scratch;
    if (!verifyFunctionStructure(Prog, Fn, Scratch))
      continue;
    Analyzable[Fn] = true;
    CFG G(F);
    std::vector<std::vector<bool>> Dom = computeDominators(G);
    // Natural loops: for each back edge U -> H (H dominates U), the
    // body is H plus everything that reaches U without passing H.
    std::vector<unsigned> Depth(G.numBlocks(), 0);
    for (uint32_t U = 0; U != G.numBlocks(); ++U) {
      if (!G.reachable(U))
        continue;
      std::vector<uint32_t> Heads;
      for (uint32_t S : G.block(U).Succs)
        if (Dom[U][S] &&
            std::find(Heads.begin(), Heads.end(), S) == Heads.end())
          Heads.push_back(S);
      for (uint32_t H : Heads) {
        std::vector<bool> InBody(G.numBlocks(), false);
        InBody[H] = true;
        std::vector<uint32_t> Stack;
        if (!InBody[U]) {
          InBody[U] = true;
          Stack.push_back(U);
        }
        while (!Stack.empty()) {
          uint32_t B = Stack.back();
          Stack.pop_back();
          for (uint32_t P : G.block(B).Preds)
            if (G.reachable(P) && !InBody[P]) {
              InBody[P] = true;
              Stack.push_back(P);
            }
        }
        for (uint32_t B = 0; B != G.numBlocks(); ++B)
          if (InBody[B])
            ++Depth[B];
      }
    }
    for (uint32_t B = 0; B != G.numBlocks(); ++B) {
      if (!G.reachable(B))
        continue;
      LoopDepth[Fn] = std::max(LoopDepth[Fn], std::min(Depth[B], MaxDegree));
      const BasicBlock &BB = G.block(B);
      for (size_t Pc = BB.Begin; Pc != BB.End; ++Pc)
        if (F.Code[Pc].Opcode == Op::Call) {
          size_t Callee = static_cast<size_t>(F.Code[Pc].A);
          if (Callee < NumFns)
            Calls[Fn].push_back({Callee, std::min(Depth[B], MaxDegree)});
        }
    }
  }

  // Transitive closure over call edges to detect (mutual) recursion.
  std::vector<std::vector<bool>> Reach(NumFns,
                                       std::vector<bool>(NumFns, false));
  for (size_t Fn = 0; Fn != NumFns; ++Fn)
    for (const auto &C : Calls[Fn])
      Reach[Fn][C.first] = true;
  for (size_t K = 0; K != NumFns; ++K)
    for (size_t I = 0; I != NumFns; ++I) {
      if (!Reach[I][K])
        continue;
      for (size_t J = 0; J != NumFns; ++J)
        Reach[I][J] = Reach[I][J] || Reach[K][J];
    }

  // Monotone fixpoint: degree = max(own depth, site depth + callee
  // degree), capped. Unanalyzable or recursive functions pin the cap
  // (their iteration structure is invisible to the loop analysis).
  std::vector<unsigned> Degree(NumFns, 0);
  for (size_t Fn = 0; Fn != NumFns; ++Fn)
    Degree[Fn] = !Analyzable[Fn] || Reach[Fn][Fn] ? MaxDegree : LoopDepth[Fn];
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t Fn = 0; Fn != NumFns; ++Fn) {
      if (!Analyzable[Fn] || Reach[Fn][Fn])
        continue;
      unsigned D = LoopDepth[Fn];
      for (const auto &C : Calls[Fn])
        D = std::max(D, std::min(C.second + Degree[C.first], MaxDegree));
      if (D > Degree[Fn]) {
        Degree[Fn] = D;
        Changed = true;
      }
    }
  }

  std::map<RoutineId, unsigned> Result;
  for (size_t Fn = 0; Fn != NumFns; ++Fn) {
    RoutineId Id = Prog.Functions[Fn].Id;
    auto It = Result.find(Id);
    if (It == Result.end())
      Result[Id] = Degree[Fn];
    else
      It->second = std::max(It->second, Degree[Fn]);
  }
  return Result;
}
