//===- trace/Event.cpp - Instrumentation event model -----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/Event.h"

#include "support/Compiler.h"

using namespace isp;

const char *isp::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::ThreadStart:
    return "ThreadStart";
  case EventKind::ThreadEnd:
    return "ThreadEnd";
  case EventKind::Call:
    return "Call";
  case EventKind::Return:
    return "Return";
  case EventKind::BasicBlock:
    return "BasicBlock";
  case EventKind::Read:
    return "Read";
  case EventKind::Write:
    return "Write";
  case EventKind::KernelRead:
    return "KernelRead";
  case EventKind::KernelWrite:
    return "KernelWrite";
  case EventKind::SyncAcquire:
    return "SyncAcquire";
  case EventKind::SyncRelease:
    return "SyncRelease";
  case EventKind::ThreadCreate:
    return "ThreadCreate";
  case EventKind::ThreadJoin:
    return "ThreadJoin";
  case EventKind::Alloc:
    return "Alloc";
  case EventKind::Free:
    return "Free";
  }
  ISP_UNREACHABLE("unknown event kind");
}

std::vector<Event>
isp::encodeEventStream(const std::vector<EventRecord> &Records) {
  std::vector<Event> Words;
  Words.reserve(Records.size());
  Event Buf[Event::MaxWordsPerRecord];
  for (const EventRecord &E : Records) {
    size_t N = encodeEvent(E, Buf);
    Words.insert(Words.end(), Buf, Buf + N);
  }
  return Words;
}

std::vector<EventRecord> isp::decodeEventStream(const Event *Words,
                                                size_t Count) {
  std::vector<EventRecord> Records;
  Records.reserve(Count);
  EventRecord E;
  for (size_t Pos = 0, Used;
       (Used = decodeEvent(Words + Pos, Count - Pos, E)) != 0; Pos += Used)
    Records.push_back(E);
  return Records;
}

std::vector<EventRecord>
isp::decodeEventStream(const std::vector<Event> &Words) {
  return decodeEventStream(Words.data(), Words.size());
}

size_t isp::packedEventCount(const Event *Words, size_t Count) {
  size_t Records = 0;
  for (size_t I = 0; I != Count; I += Words[I].hasFollow() ? 2 : 1) {
    if (Words[I].hasFollow() && I + 1 == Count)
      break; // the follow-on word is cut off
    ++Records;
  }
  return Records;
}
