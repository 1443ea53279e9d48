#pragma once
// Cumulative bytes requested from the global operator new, for the per-host
// heap measurements. A program that links heap_counter.cpp gets its global
// operator new/delete replaced by a counting hook (same precedent as
// tests/sim/event_queue_alloc_test.cpp), so the hook stays out of the
// library. It has a translation unit of its own: were the malloc/free
// bodies visible where operator new and delete are called, the compiler
// would inline them and read the pair as new matched with free
// (-Wmismatched-new-delete).

#include <cstdint>

namespace cyd::benchutil {

std::uint64_t heap_bytes();

}  // namespace cyd::benchutil
