#ifndef TPART_PERFBENCH_COUNTING_ALLOC_H_
#define TPART_PERFBENCH_COUNTING_ALLOC_H_

// Counting global operator new, linked into the traced runner only, so
// timed runs pay nothing for it. Counting is off until enabled.

#include <cstdint>

namespace perfbench {

void SetAllocCounting(bool on);
std::uint64_t AllocCount();
std::uint64_t AllocBytes();

}  // namespace perfbench

#endif  // TPART_PERFBENCH_COUNTING_ALLOC_H_
