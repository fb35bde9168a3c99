//===- perfbench/src/AllocCounter.h - Heap allocation counting -*- C++ -*-===//
//
// The benchmark binary replaces the global operator new so the traced run
// can count allocations per function. Counting is off unless switched on,
// and then costs one relaxed atomic increment per allocation.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ALLOCCOUNTER_H
#define PERFBENCH_ALLOCCOUNTER_H

#include <cstdint>

namespace perfbench {

void setAllocCounting(bool On);
uint64_t allocCount();

} // namespace perfbench

#endif // PERFBENCH_ALLOCCOUNTER_H
