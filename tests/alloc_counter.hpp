#pragma once
// The counting replacement of the global operator new that alloc_tests'
// assertions read. alloc_counter.cpp defines it in a translation unit of its
// own: were the malloc/free bodies visible where operator new and delete are
// called, the compiler would inline them and read the pair as new matched
// with free (-Wmismatched-new-delete). Only alloc_tests links it, so the
// hook never reaches another binary.

#include <cstddef>
#include <cstdint>

// Sanitizer builds interpose their own allocator machinery around
// operator new; the counts stop meaning "allocations the code under test
// made", so the count assertions are skipped there (the behaviour half of
// each test still runs).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CYD_ALLOC_COUNTS_RELIABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CYD_ALLOC_COUNTS_RELIABLE 0
#endif
#endif
#ifndef CYD_ALLOC_COUNTS_RELIABLE
#define CYD_ALLOC_COUNTS_RELIABLE 1
#endif

namespace cyd::alloc_counter {

/// Calls to the global operator new (and new[]) so far.
std::size_t allocations();
/// Bytes those calls requested so far.
std::uint64_t bytes();

}  // namespace cyd::alloc_counter
