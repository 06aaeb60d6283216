#pragma once

#include <cstdint>

// Counting global allocator for the suites that assert a code region
// allocates nothing, or a bounded amount (test_trace, test_metrics,
// test_perf_paths, test_topology_costs).
//
// counting_allocator.cpp replaces the plain, array, sized and nothrow
// forms of global operator new and delete with malloc/free plus a
// process-wide allocation count.  The nothrow forms matter under
// AddressSanitizer: std::stable_sort takes its buffer with nothrow new, and
// a block from the sanitizer's own nothrow new freed by a replaced delete is
// an alloc-dealloc mismatch.
//
// Counting is process-wide, so a test compares allocations() (or
// allocated_bytes(), the sizes requested) across a region with no other
// allocation source (no gtest assertions inside it).
namespace dyncg {
namespace test {

std::uint64_t allocations();
std::uint64_t allocated_bytes();

}  // namespace test
}  // namespace dyncg
