#pragma once
// Resident-set-size probe, the Collectl substitute's memory source.

#include <cstdint>

namespace trinity::util {

/// Current resident set size of this process in bytes, read from
/// /proc/self/statm. Returns 0 if the proc file is unavailable.
std::uint64_t current_rss_bytes();

}  // namespace trinity::util
