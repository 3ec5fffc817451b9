//===- tools/MemcheckTool.h - Memory error checker --------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memcheck analogue: a shadow-memory tool detecting, from the event
/// stream alone, (a) accesses to unallocated or freed heap cells,
/// (b) reads of heap cells never initialized since allocation,
/// (c) double frees and bad free addresses, and (d) leaked heap blocks
/// at program end. Like the original, it keys entirely off memory and
/// allocation events (it ignores call/return), which is why its Table 1
/// cost profile differs from the call-tracing tools.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TOOLS_MEMCHECKTOOL_H
#define ISPROF_TOOLS_MEMCHECKTOOL_H

#include "instr/Tool.h"
#include "shadow/ShadowMemory.h"

#include <map>
#include <string>
#include <vector>

namespace isp {

/// One reported memory error.
struct MemError {
  enum class Kind {
    InvalidRead,
    InvalidWrite,
    UninitializedRead,
    DoubleFree,
    BadFree,
    Leak
  };
  Kind ErrorKind;
  ThreadId Tid = 0;
  Addr Address = 0;
  uint64_t Cells = 0;
};

const char *memErrorKindName(MemError::Kind Kind);

class MemcheckTool : public ToolImpl<MemcheckTool> {
public:
  std::string name() const override { return "memcheck"; }
  uint64_t memoryFootprintBytes() const override;

  void onRead(ThreadId Tid, Addr A, uint64_t Cells);
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells);
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells);
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells);
  void onAlloc(ThreadId Tid, Addr A, uint64_t Cells);
  void onFree(ThreadId Tid, Addr A);
  void onFinish() override;

  const std::vector<MemError> &errors() const { return Errors; }
  uint64_t totalErrors() const { return ErrorCount; }
  uint64_t leakedCells() const { return LeakedCells; }

  /// Renders a memcheck-style error summary.
  std::string renderReport(const SymbolTable *Symbols = nullptr) const;

private:
  /// Per-cell shadow state bits.
  enum : uint8_t {
    ShadowAllocated = 1 << 0, ///< inside a live heap block
    ShadowInit = 1 << 1,      ///< written since allocation
    ShadowFreed = 1 << 2      ///< inside a freed heap block
  };

  struct HeapBlock {
    uint64_t Cells = 0;
    bool Live = false;
  };

  void report(MemError::Kind Kind, ThreadId Tid, Addr A, uint64_t Cells);
  void checkAccess(ThreadId Tid, Addr A, uint64_t Cells, bool IsWrite,
                   bool CheckInit);
  static bool isHeapAddress(Addr A);

  ThreeLevelShadow<uint8_t> Shadow;
  std::map<Addr, HeapBlock> Blocks;
  std::vector<MemError> Errors;
  uint64_t ErrorCount = 0;
  uint64_t LeakedCells = 0;
  static constexpr size_t MaxRecordedErrors = 64;
};

/// The batch walk is instantiated in MemcheckTool.cpp, beside the callbacks.
extern template class ToolImpl<MemcheckTool>;

} // namespace isp

#endif // ISPROF_TOOLS_MEMCHECKTOOL_H
