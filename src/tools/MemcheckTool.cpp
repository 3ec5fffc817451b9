//===- tools/MemcheckTool.cpp - Memory error checker --------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "tools/MemcheckTool.h"

#include "support/Compiler.h"
#include "support/Format.h"
#include "vm/Bytecode.h"

using namespace isp;

const char *isp::memErrorKindName(MemError::Kind Kind) {
  switch (Kind) {
  case MemError::Kind::InvalidRead:
    return "invalid read";
  case MemError::Kind::InvalidWrite:
    return "invalid write";
  case MemError::Kind::UninitializedRead:
    return "uninitialized read";
  case MemError::Kind::DoubleFree:
    return "double free";
  case MemError::Kind::BadFree:
    return "bad free";
  case MemError::Kind::Leak:
    return "leaked block";
  }
  ISP_UNREACHABLE("unknown memory error kind");
}

bool MemcheckTool::isHeapAddress(Addr A) {
  return A >= HeapBase && A < StackRegionBase;
}

void MemcheckTool::report(MemError::Kind Kind, ThreadId Tid, Addr A,
                          uint64_t Cells) {
  ++ErrorCount;
  if (Errors.size() < MaxRecordedErrors)
    Errors.push_back({Kind, Tid, A, Cells});
}

void MemcheckTool::checkAccess(ThreadId Tid, Addr A, uint64_t Cells,
                               bool IsWrite, bool CheckInit) {
  for (uint64_t I = 0; I != Cells; ++I) {
    Addr Address = A + I;
    uint8_t &State = Shadow.cell(Address);
    if (isHeapAddress(Address)) {
      if (!(State & ShadowAllocated)) {
        report(IsWrite ? MemError::Kind::InvalidWrite
                       : MemError::Kind::InvalidRead,
               Tid, Address, 1);
        continue;
      }
      if (!IsWrite && CheckInit && !(State & ShadowInit))
        report(MemError::Kind::UninitializedRead, Tid, Address, 1);
    }
    if (IsWrite)
      State |= ShadowInit;
  }
}

void MemcheckTool::onRead(ThreadId Tid, Addr A, uint64_t Cells) {
  checkAccess(Tid, A, Cells, /*IsWrite=*/false, /*CheckInit=*/true);
}

void MemcheckTool::onWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  checkAccess(Tid, A, Cells, /*IsWrite=*/true, /*CheckInit=*/false);
}

void MemcheckTool::onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) {
  // The kernel copies guest memory out: same addressability rules, but
  // sending uninitialized data is only a warning-grade condition in real
  // memcheck; we flag it the same way.
  checkAccess(Tid, A, Cells, /*IsWrite=*/false, /*CheckInit=*/true);
}

void MemcheckTool::onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  checkAccess(Tid, A, Cells, /*IsWrite=*/true, /*CheckInit=*/false);
}

void MemcheckTool::onAlloc(ThreadId Tid, Addr A, uint64_t Cells) {
  Blocks[A] = {Cells, /*Live=*/true};
  for (uint64_t I = 0; I != Cells; ++I) {
    uint8_t &State = Shadow.cell(A + I);
    State = ShadowAllocated; // clears Init and Freed from any prior block
  }
}

void MemcheckTool::onFree(ThreadId Tid, Addr A) {
  auto It = Blocks.find(A);
  if (It == Blocks.end()) {
    report(MemError::Kind::BadFree, Tid, A, 0);
    return;
  }
  if (!It->second.Live) {
    report(MemError::Kind::DoubleFree, Tid, A, It->second.Cells);
    return;
  }
  It->second.Live = false;
  for (uint64_t I = 0; I != It->second.Cells; ++I) {
    uint8_t &State = Shadow.cell(A + I);
    State = static_cast<uint8_t>((State & ~ShadowAllocated) | ShadowFreed);
  }
}

void MemcheckTool::onFinish() {
  for (const auto &[Base, Block] : Blocks) {
    if (Block.Live) {
      LeakedCells += Block.Cells;
      report(MemError::Kind::Leak, 0, Base, Block.Cells);
    }
  }
}

uint64_t MemcheckTool::memoryFootprintBytes() const {
  return Shadow.totalBytes() +
         Blocks.size() * (sizeof(Addr) + sizeof(HeapBlock) + 48) +
         Errors.capacity() * sizeof(MemError);
}

std::string MemcheckTool::renderReport(const SymbolTable *Symbols) const {
  std::string Out =
      formatString("memcheck: %llu error(s), %llu leaked cell(s)\n",
                   static_cast<unsigned long long>(ErrorCount),
                   static_cast<unsigned long long>(LeakedCells));
  for (const MemError &E : Errors)
    Out += formatString("  %s at address %llu (thread %u, %llu cell(s))\n",
                        memErrorKindName(E.ErrorKind),
                        static_cast<unsigned long long>(E.Address), E.Tid,
                        static_cast<unsigned long long>(E.Cells));
  return Out;
}

// The batch walk, where it can inline the callbacks above.
template class isp::ToolImpl<MemcheckTool>;
