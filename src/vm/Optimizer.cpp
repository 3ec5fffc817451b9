//===- vm/Optimizer.cpp - Bytecode peephole optimizer ------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "vm/Optimizer.h"

#include "analysis/Escape.h"
#include "analysis/PointsTo.h"
#include "analysis/Range.h"
#include "obs/Obs.h"

#include <cassert>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace isp;

namespace {

/// Evaluates a foldable binary opcode over constants. Returns nullopt
/// for division/modulo by zero (left for the runtime's error handling).
std::optional<int64_t> foldBinary(Op Opcode, int64_t Lhs, int64_t Rhs) {
  switch (Opcode) {
  case Op::Add:
    return guestAdd(Lhs, Rhs);
  case Op::Sub:
    return guestSub(Lhs, Rhs);
  case Op::Mul:
    return guestMul(Lhs, Rhs);
  case Op::Div:
    if (Rhs == 0)
      return std::nullopt;
    return guestDiv(Lhs, Rhs);
  case Op::Mod:
    if (Rhs == 0)
      return std::nullopt;
    return guestMod(Lhs, Rhs);
  case Op::Lt:
    return Lhs < Rhs ? 1 : 0;
  case Op::Le:
    return Lhs <= Rhs ? 1 : 0;
  case Op::Gt:
    return Lhs > Rhs ? 1 : 0;
  case Op::Ge:
    return Lhs >= Rhs ? 1 : 0;
  case Op::Eq:
    return Lhs == Rhs ? 1 : 0;
  case Op::Ne:
    return Lhs != Rhs ? 1 : 0;
  default:
    return std::nullopt;
  }
}

std::optional<int64_t> foldUnary(Op Opcode, int64_t Operand) {
  switch (Opcode) {
  case Op::Neg:
    return guestNeg(Operand);
  case Op::Not:
    return Operand == 0 ? 1 : 0;
  case Op::ToBool:
    return Operand != 0 ? 1 : 0;
  default:
    return std::nullopt;
  }
}

bool isJump(Op Opcode) {
  return Opcode == Op::Jump || Opcode == Op::JumpIfFalse ||
         Opcode == Op::JumpIfTrue;
}

/// One optimization pass over \p F with a removal mask. Mutating passes
/// preserve the invariant that jump targets keep their *original*
/// indices until the final compaction.
class FunctionOptimizer {
public:
  explicit FunctionOptimizer(Function &F) : F(F), Removed(F.Code.size()) {}

  /// Folding/threading/compaction only; quiet marking runs separately
  /// (markQuietAccesses below) on the *final* instruction stream.
  OptimizerStats runPeephole() {
    bool Changed = true;
    // Each iteration strictly reduces live instructions or branch
    // targets, so a generous bound keeps this linear in practice.
    for (unsigned Round = 0; Changed && Round != 16; ++Round) {
      collectTargets();
      Changed = foldConstants();
      Changed |= threadJumps();
    }
    compact();
    return Stats;
  }

private:
  /// Index of the next live instruction after \p Index, or the size.
  size_t nextLive(size_t Index) const {
    ++Index;
    while (Index < F.Code.size() && Removed[Index])
      ++Index;
    return Index;
  }

  /// First live instruction at or after \p Index (for target mapping).
  size_t firstLiveAt(size_t Index) const {
    while (Index < F.Code.size() && Removed[Index])
      ++Index;
    return Index;
  }

  void collectTargets() {
    Targets.assign(F.Code.size() + 1, false);
    for (size_t I = 0; I != F.Code.size(); ++I) {
      if (Removed[I] || !isJump(F.Code[I].Opcode))
        continue;
      assert(F.Code[I].A >= 0 &&
             static_cast<size_t>(F.Code[I].A) <= F.Code.size());
      Targets[static_cast<size_t>(F.Code[I].A)] = true;
    }
  }

  /// True when any index in (From, To] is a jump target — folding across
  /// such a point would change what a jump into the sequence observes.
  bool targetInside(size_t From, size_t To) const {
    for (size_t I = From + 1; I <= To; ++I)
      if (Targets[I])
        return true;
    return false;
  }

  bool foldConstants() {
    bool Changed = false;
    for (size_t I = 0; I < F.Code.size(); ++I) {
      if (Removed[I] || F.Code[I].Opcode != Op::PushConst)
        continue;
      size_t J = nextLive(I);
      if (J >= F.Code.size() || targetInside(I, J))
        continue;

      // PushConst a; unary -> PushConst f(a).
      if (auto Folded = foldUnary(F.Code[J].Opcode, F.Code[I].A)) {
        F.Code[I].A = *Folded;
        Removed[J] = true;
        ++Stats.ConstantsFolded;
        ++Stats.InstructionsRemoved;
        Changed = true;
        continue;
      }

      // PushConst a; JumpIfFalse/True L -> Jump L or fallthrough.
      if (F.Code[J].Opcode == Op::JumpIfFalse ||
          F.Code[J].Opcode == Op::JumpIfTrue) {
        bool Taken = (F.Code[J].Opcode == Op::JumpIfFalse) ==
                     (F.Code[I].A == 0);
        if (Taken) {
          F.Code[I] = {Op::Jump, F.Code[J].A, 0};
        } else {
          Removed[I] = true;
          ++Stats.InstructionsRemoved;
        }
        Removed[J] = true;
        ++Stats.BranchesResolved;
        ++Stats.InstructionsRemoved;
        Changed = true;
        continue;
      }

      // PushConst a; PushConst b; binop -> PushConst (a op b).
      if (F.Code[J].Opcode != Op::PushConst)
        continue;
      size_t K = nextLive(J);
      if (K >= F.Code.size() || targetInside(J, K))
        continue;
      if (auto Folded =
              foldBinary(F.Code[K].Opcode, F.Code[I].A, F.Code[J].A)) {
        F.Code[I].A = *Folded;
        Removed[J] = true;
        Removed[K] = true;
        Stats.InstructionsRemoved += 2;
        ++Stats.ConstantsFolded;
        Changed = true;
      }
    }
    return Changed;
  }

  bool threadJumps() {
    bool Changed = false;
    for (size_t I = 0; I != F.Code.size(); ++I) {
      if (Removed[I] || !isJump(F.Code[I].Opcode))
        continue;
      // Follow chains of unconditional jumps (bounded against cycles).
      int64_t Target = F.Code[I].A;
      for (unsigned Hops = 0; Hops != 8; ++Hops) {
        size_t Live = firstLiveAt(static_cast<size_t>(Target));
        if (Live >= F.Code.size() || F.Code[Live].Opcode != Op::Jump ||
            F.Code[Live].A == Target)
          break;
        Target = F.Code[Live].A;
        ++Stats.JumpsThreaded;
        Changed = true;
      }
      F.Code[I].A = Target;
    }
    return Changed;
  }

  void compact() {
    std::vector<int64_t> NewIndex(F.Code.size() + 1, 0);
    std::vector<Instr> NewCode;
    NewCode.reserve(F.Code.size());
    for (size_t I = 0; I != F.Code.size(); ++I) {
      NewIndex[I] = static_cast<int64_t>(NewCode.size());
      if (!Removed[I])
        NewCode.push_back(F.Code[I]);
    }
    NewIndex[F.Code.size()] = static_cast<int64_t>(NewCode.size());
    for (Instr &I : NewCode)
      if (isJump(I.Opcode))
        I.A = NewIndex[firstLiveAt(static_cast<size_t>(I.A))];
    F.Code = std::move(NewCode);
  }

  Function &F;
  std::vector<bool> Removed;
  std::vector<bool> Targets;
  OptimizerStats Stats;
};

/// The quiet-access pass (see the Optimizer.h file comment): marks a
/// re-read of a local slot or named global cell that the window already
/// read or wrote, and a re-write of one that it already wrote. Returns
/// the number of marks.
unsigned markQuietAccesses(Function &F) {
  std::vector<bool> IsTarget(F.Code.size() + 1, false);
  for (const Instr &I : F.Code)
    if (isJump(I.Opcode))
      IsTarget[static_cast<size_t>(I.A)] = true;

  // The window generation in which a slot or cell was last read or
  // written, and in which it was last written.
  struct Stamps {
    uint32_t Touched = 0;
    uint32_t Written = 0;
  };
  std::unordered_map<int64_t, Stamps> Locals, Globals;
  uint32_t Gen = 1;
  unsigned Marked = 0;
  for (size_t I = 0; I != F.Code.size(); ++I) {
    // Control may arrive at a jump target from elsewhere.
    if (IsTarget[I])
      ++Gen;
    Instr &In = F.Code[I];
    switch (In.Opcode) {
    case Op::LoadLocal:
    case Op::LoadGlobal: {
      Stamps &S = (In.Opcode == Op::LoadLocal ? Locals : Globals)[In.A];
      if (S.Touched == Gen) {
        In.B = 1;
        ++Marked;
      }
      S.Touched = Gen;
      break;
    }
    case Op::StoreLocal:
    case Op::StoreGlobal: {
      Stamps &S = (In.Opcode == Op::StoreLocal ? Locals : Globals)[In.A];
      if (S.Written == Gen) {
        In.B = 1;
        ++Marked;
      }
      S.Touched = S.Written = Gen;
      break;
    }
    // The window breaks. Conditional jumps are not among them: the
    // fall-through path still postdominates the window's earlier accesses.
    case Op::Jump:
    case Op::Return:
    case Op::Call:
    case Op::Spawn:
    case Op::CallBuiltin:
      ++Gen;
      break;
    default:
      break;
    }
  }
  return Marked;
}

} // namespace

OptimizerStats isp::optimizeProgram(Program &Prog) {
  OptimizerStats Total;
  for (Function &F : Prog.Functions) {
    OptimizerStats S = FunctionOptimizer(F).runPeephole();
    Total.ConstantsFolded += S.ConstantsFolded;
    Total.JumpsThreaded += S.JumpsThreaded;
    Total.BranchesResolved += S.BranchesResolved;
    Total.InstructionsRemoved += S.InstructionsRemoved;
  }

  // Quiet marking runs on the final instruction stream.
  obs::ScopedTimer MarkTimer(
      obs::statsEnabled()
          ? &obs::Registry::get().counter("analysis.quiet_mark_ns")
          : nullptr);
  for (Function &F : Prog.Functions) {
    unsigned Marked = markQuietAccesses(F);
    Total.QuietAccessesMarked += Marked;
    // Per-function suppression potential: which routines the quiet-mark
    // pass actually bites on (zero-mark functions are left out of the
    // registry to keep the dump proportional to findings).
    if (Marked != 0)
      ISP_STATS(obs::Registry::get()
                    .counter("optimizer.quiet_marked." + F.Name)
                    .add(Marked));
  }

  // Range-based covered-read pass, the only source of indirect marks:
  // variable-index LoadIndirect sites whose event is proven redundant by
  // the interprocedural certificate (never-escaping frame array,
  // dominating certified fill loop, in-bounds index, program-wide
  // containment — see Range.h).
  {
    analysis::PointsToResult PT = analysis::computePointsTo(Prog);
    analysis::EscapeResult Esc = analysis::computeEscape(Prog);
    analysis::RangeResult RR = analysis::computeRanges(Prog);
    for (const auto &Site : analysis::coveredIndirectReads(Prog, PT, Esc, RR)) {
      Instr &In = Prog.Functions[Site.first].Code[Site.second];
      if (In.Opcode != Op::LoadIndirect || In.B != 0)
        continue; // already marked by an earlier optimizeProgram
      In.B = 1;
      ++Total.RangeQuietMarked;
      ++Total.QuietAccessesMarked;
    }
  }

  if (ISP_UNLIKELY(obs::statsEnabled())) {
    obs::Registry &R = obs::Registry::get();
    R.counter("analysis.range_quiet_marked").add(Total.RangeQuietMarked);
    R.counter("optimizer.constants_folded").add(Total.ConstantsFolded);
    R.counter("optimizer.jumps_threaded").add(Total.JumpsThreaded);
    R.counter("optimizer.branches_resolved").add(Total.BranchesResolved);
    R.counter("optimizer.instructions_removed").add(Total.InstructionsRemoved);
    R.counter("optimizer.quiet_accesses_marked").add(Total.QuietAccessesMarked);
  }
  return Total;
}
