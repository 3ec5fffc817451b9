//===- analysis/PointsTo.cpp - Andersen-style points-to ----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"

#include "analysis/CFG.h"
#include "analysis/Verifier.h"
#include "obs/Obs.h"

#include <cassert>
#include <set>
#include <unordered_map>

using namespace isp;
using namespace isp::analysis;

namespace {

constexpr uint32_t NoNode = ~uint32_t(0);

/// Constraint-graph builder + solver. Nodes are pointer-valued storage
/// summaries: locals, global cells, function returns, per-object
/// content summaries, block-entry stack slots (phi nodes), and
/// per-instruction temporaries.
class Andersen {
public:
  explicit Andersen(const Program &Prog) : Prog(Prog) {}

  PointsToResult run();

private:
  enum class NodeKind : uint8_t { Local, Global, Ret, Content, Phi, Temp };

  uint32_t makeNode() {
    uint32_t Id = static_cast<uint32_t>(Pts.size());
    Pts.emplace_back();
    CopyEdges.emplace_back();
    LoadsFrom.emplace_back();
    StoresTo.emplace_back();
    return Id;
  }
  uint32_t keyedNode(NodeKind K, uint64_t A, uint64_t B = 0) {
    uint64_t Key = (static_cast<uint64_t>(K) << 56) ^ (A << 20) ^ B;
    auto [It, New] = KeyedNodes.try_emplace(Key, 0);
    if (New)
      It->second = makeNode();
    return It->second;
  }
  uint32_t localNode(size_t Fn, size_t Slot) {
    return keyedNode(NodeKind::Local, Fn, Slot);
  }
  uint32_t globalNode(Addr A) { return keyedNode(NodeKind::Global, A); }
  uint32_t retNode(size_t Fn) { return keyedNode(NodeKind::Ret, Fn); }
  uint32_t contentNode(uint32_t Obj) {
    return keyedNode(NodeKind::Content, Obj);
  }
  uint32_t phiNode(size_t Fn, uint32_t Block, int Depth) {
    return keyedNode(NodeKind::Phi, (Fn << 20) ^ Block,
                     static_cast<uint64_t>(Depth));
  }

  uint32_t objectForSite(AbstractObject::Kind K, size_t Fn, size_t Pc,
                         uint64_t Cells) {
    uint32_t Id = static_cast<uint32_t>(Result.Objects.size());
    Result.Objects.push_back({K, 0, Fn, Pc, Cells});
    return Id;
  }

  void addAddrOf(uint32_t Node, uint32_t Obj) {
    if (Node != NoNode)
      Pts[Node].insert(Obj);
  }
  void addCopy(uint32_t From, uint32_t To) {
    if (From != NoNode && To != NoNode && From != To)
      CopyEdges[From].insert(To);
  }
  void addLoad(uint32_t BasePtr, uint32_t Dst) {
    if (BasePtr != NoNode && Dst != NoNode)
      LoadsFrom[BasePtr].insert(Dst);
  }
  void addStore(uint32_t BasePtr, uint32_t Src) {
    if (BasePtr != NoNode && Src != NoNode)
      StoresTo[BasePtr].insert(Src);
  }

  void generateFunction(size_t FnIdx);
  void solve();

  const Program &Prog;
  PointsToResult Result;

  std::unordered_map<uint64_t, uint32_t> KeyedNodes;
  std::vector<std::set<uint32_t>> Pts;       ///< node -> object ids
  std::vector<std::set<uint32_t>> CopyEdges; ///< pts(to) >= pts(from)
  std::vector<std::set<uint32_t>> LoadsFrom; ///< pts(dst) >= pts(*node)
  std::vector<std::set<uint32_t>> StoresTo;  ///< pts(*node) >= pts(src)
  /// Base-operand node of every indirect access site.
  std::map<std::pair<size_t, size_t>, std::pair<uint32_t, bool>> SiteBases;
};

void Andersen::generateFunction(size_t FnIdx) {
  const Function &F = Prog.Functions[FnIdx];
  CFG G(F);
  auto Depths = computeBlockEntryDepths(G, FnIdx, nullptr);
  if (!Depths)
    return; // malformed function: no constraints, all sites unknown

  // Global-array objects were pre-created with ids equal to their array
  // indices (run()); map their base addresses for literal pushes.
  std::unordered_map<int64_t, uint32_t> BaseToObject;
  for (size_t AI = 0; AI != Prog.GlobalArrays.size(); ++AI)
    BaseToObject[static_cast<int64_t>(Prog.GlobalArrays[AI].Base)] =
        static_cast<uint32_t>(AI);

  for (uint32_t BI = 0; BI != G.numBlocks(); ++BI) {
    if (!G.reachable(BI))
      continue;
    std::vector<uint32_t> Stack;
    for (int D = 0; D != (*Depths)[BI]; ++D)
      Stack.push_back(phiNode(FnIdx, BI, D));

    auto pop = [&Stack]() {
      assert(!Stack.empty() && "verified depth cannot underflow");
      uint32_t N = Stack.back();
      Stack.pop_back();
      return N;
    };

    const BasicBlock &B = G.block(BI);
    for (size_t Pc = B.Begin; Pc != B.End; ++Pc) {
      const Instr &In = F.Code[Pc];
      switch (In.Opcode) {
      case Op::Nop:
      case Op::BasicBlock:
      case Op::Jump:
        break;
      case Op::PushConst: {
        auto It = BaseToObject.find(In.A);
        if (It != BaseToObject.end()) {
          uint32_t T = makeNode();
          addAddrOf(T, It->second);
          Stack.push_back(T);
        } else {
          Stack.push_back(NoNode);
        }
        break;
      }
      case Op::Pop:
      case Op::JumpIfFalse:
      case Op::JumpIfTrue:
        pop();
        break;
      case Op::LoadLocal:
        Stack.push_back(localNode(FnIdx, static_cast<size_t>(In.A)));
        break;
      case Op::StoreLocal:
        addCopy(pop(), localNode(FnIdx, static_cast<size_t>(In.A)));
        break;
      case Op::LoadGlobal:
        Stack.push_back(globalNode(static_cast<Addr>(In.A)));
        break;
      case Op::StoreGlobal:
        addCopy(pop(), globalNode(static_cast<Addr>(In.A)));
        break;
      case Op::LoadIndirect: {
        pop(); // index: never treated as carrying the base provenance
        uint32_t Base = pop();
        uint32_t T = makeNode();
        addLoad(Base, T);
        SiteBases[{FnIdx, Pc}] = {Base, false};
        Stack.push_back(T);
        break;
      }
      case Op::StoreIndirect: {
        uint32_t Value = pop();
        pop(); // index
        uint32_t Base = pop();
        addStore(Base, Value);
        SiteBases[{FnIdx, Pc}] = {Base, true};
        if (Base == NoNode)
          Result.HasWildStore = true;
        break;
      }
      case Op::AllocaArray: {
        // Statically sized iff the size operand is a literal directly
        // below (compile pattern for "var a[N];").
        uint64_t Cells = 0;
        if (Pc > B.Begin && F.Code[Pc - 1].Opcode == Op::PushConst &&
            F.Code[Pc - 1].A > 0)
          Cells = static_cast<uint64_t>(F.Code[Pc - 1].A);
        pop();
        uint32_t T = makeNode();
        addAddrOf(T,
                  objectForSite(AbstractObject::Kind::AllocaSite, FnIdx, Pc,
                                Cells));
        Stack.push_back(T);
        break;
      }
      case Op::Add:
      case Op::Sub: {
        uint32_t Rhs = pop();
        uint32_t Lhs = pop();
        if (Lhs == NoNode && Rhs == NoNode) {
          Stack.push_back(NoNode);
        } else {
          // Pointer arithmetic: the result may address either operand's
          // objects (field-insensitive, so offsets are ignored).
          uint32_t T = makeNode();
          addCopy(Lhs, T);
          addCopy(Rhs, T);
          Stack.push_back(T);
        }
        break;
      }
      case Op::Mul:
      case Op::Div:
      case Op::Mod:
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
      case Op::Eq:
      case Op::Ne:
        pop();
        pop();
        Stack.push_back(NoNode);
        break;
      case Op::Neg:
      case Op::Not:
      case Op::ToBool:
        pop();
        Stack.push_back(NoNode);
        break;
      case Op::Call:
      case Op::Spawn: {
        size_t Callee = static_cast<size_t>(In.A);
        for (int64_t Arg = In.B - 1; Arg >= 0; --Arg)
          addCopy(pop(), localNode(Callee, static_cast<size_t>(Arg)));
        Stack.push_back(In.Opcode == Op::Call ? retNode(Callee) : NoNode);
        break;
      }
      case Op::CallBuiltin: {
        std::vector<uint32_t> Args(static_cast<size_t>(In.B));
        for (size_t Arg = Args.size(); Arg-- > 0;)
          Args[Arg] = pop();
        uint32_t ResultNode = NoNode;
        switch (static_cast<Builtin>(In.A)) {
        case Builtin::Alloc: {
          uint64_t Cells = 0;
          if (Pc > B.Begin && F.Code[Pc - 1].Opcode == Op::PushConst &&
              F.Code[Pc - 1].A > 0)
            Cells = static_cast<uint64_t>(F.Code[Pc - 1].A);
          ResultNode = makeNode();
          addAddrOf(ResultNode,
                    objectForSite(AbstractObject::Kind::HeapSite, FnIdx, Pc,
                                  Cells));
          break;
        }
        case Builtin::Print: // print(x) returns x
          ResultNode = Args.empty() ? NoNode : Args[0];
          break;
        case Builtin::Load: { // load(addr): raw read through a pointer
          ResultNode = makeNode();
          addLoad(Args.empty() ? NoNode : Args[0], ResultNode);
          break;
        }
        case Builtin::Store: { // store(addr, v) returns v
          uint32_t Target = Args.empty() ? NoNode : Args[0];
          uint32_t Value = Args.size() > 1 ? Args[1] : NoNode;
          addStore(Target, Value);
          // A raw store through an untracked address can rewrite any
          // named cell.
          if (Target == NoNode)
            Result.HasWildStore = true;
          ResultNode = Value;
          break;
        }
        default:
          break;
        }
        Stack.push_back(ResultNode);
        break;
      }
      case Op::Return:
        addCopy(pop(), retNode(FnIdx));
        break;
      }
    }

    // Flow the exit stack into every successor's phi nodes.
    for (uint32_t S : B.Succs)
      for (size_t D = 0; D != Stack.size(); ++D)
        addCopy(Stack[D], phiNode(FnIdx, S, static_cast<int>(D)));
  }
}

void Andersen::solve() {
  std::vector<uint32_t> Work;
  std::vector<bool> InWork(Pts.size(), false);
  auto enqueue = [&](uint32_t N) {
    if (N < InWork.size() && !InWork[N]) {
      InWork[N] = true;
      Work.push_back(N);
    }
  };
  for (uint32_t N = 0; N != Pts.size(); ++N)
    if (!Pts[N].empty())
      enqueue(N);

  // Complex (load/store) constraints add copy edges as points-to sets
  // grow; re-processing a node replays them idempotently.
  while (!Work.empty()) {
    uint32_t N = Work.back();
    Work.pop_back();
    InWork[N] = false;

    for (uint32_t Obj : Pts[N]) {
      // Content nodes are pre-created (run()), so no allocation happens
      // while iterators into the constraint sets are live.
      uint32_t C = contentNode(Obj);
      for (uint32_t Dst : LoadsFrom[N])
        if (CopyEdges[C].insert(Dst).second && !Pts[C].empty())
          enqueue(C);
      for (uint32_t Src : StoresTo[N])
        if (CopyEdges[Src].insert(C).second && !Pts[Src].empty())
          enqueue(Src);
    }

    for (uint32_t To : CopyEdges[N]) {
      bool Changed = false;
      for (uint32_t Obj : Pts[N])
        Changed |= Pts[To].insert(Obj).second;
      if (Changed)
        enqueue(To);
    }
  }
}

PointsToResult Andersen::run() {
  // Global-array objects first so their ids equal their array indices.
  for (size_t AI = 0; AI != Prog.GlobalArrays.size(); ++AI)
    Result.Objects.push_back({AbstractObject::Kind::GlobalArray, AI, 0, 0,
                              Prog.GlobalArrays[AI].Cells});
  // Their base addresses are installed into the named cells by the
  // loader (GlobalInits), without code — model as addr-of constraints.
  for (size_t AI = 0; AI != Prog.GlobalArrays.size(); ++AI)
    addAddrOf(globalNode(Prog.GlobalArrays[AI].Cell),
              static_cast<uint32_t>(AI));

  for (size_t FI = 0; FI != Prog.Functions.size(); ++FI)
    generateFunction(FI);
  // Materialize every content summary node before solving so the solver
  // never allocates (see the iterator-stability note in solve()).
  for (uint32_t Obj = 0; Obj != Result.Objects.size(); ++Obj)
    contentNode(Obj);
  solve();

  for (const auto &[Site, BaseInfo] : SiteBases) {
    SiteFacts Facts;
    Facts.IsStore = BaseInfo.second;
    if (BaseInfo.first != NoNode)
      Facts.Objects.assign(Pts[BaseInfo.first].begin(),
                           Pts[BaseInfo.first].end());
    Facts.BaseKnown = !Facts.Objects.empty();
    if (BaseInfo.second && !Facts.BaseKnown)
      Result.HasWildStore = true;
    Result.Sites.emplace(Site, std::move(Facts));
  }
  for (const auto &Set : Pts)
    Result.TotalFacts += Set.size();
  return Result;
}

} // namespace

PointsToResult isp::analysis::computePointsTo(const Program &Prog) {
  obs::ScopedTimer Timer(
      obs::statsEnabled()
          ? &obs::Registry::get().counter("analysis.points_to_ns")
          : nullptr);
  PointsToResult R = Andersen(Prog).run();
  ISP_STATS(obs::Registry::get()
                .counter("analysis.points_to_facts")
                .add(R.TotalFacts));
  return R;
}
