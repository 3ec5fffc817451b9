//===- instr/Tool.cpp - Analysis tool interface ------------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "instr/Tool.h"

using namespace isp;

// Anchors the vtable; the batch walk lives in the header.
Tool::~Tool() = default;
