// Heap-allocation counter for the traced run: this binary replaces the global
// operator new, and while counting is switched on every allocation adds to a
// count and a byte total. Off (the default, and always in the end-to-end
// run) the replacement is a flag test in front of malloc.
#pragma once

#include <cstdint>

namespace tickbench {

struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Zeroes the totals and starts counting.
void alloc_count_begin();
/// Stops counting and returns the totals since alloc_count_begin().
AllocTotals alloc_count_end();

}  // namespace tickbench
