#include "util/rss.hpp"

#include <unistd.h>

#include <fstream>

namespace trinity::util {

std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  if (!statm) return 0;
  std::uint64_t size_pages = 0;
  std::uint64_t rss_pages = 0;
  statm >> size_pages >> rss_pages;
  if (!statm) return 0;
  return rss_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace trinity::util
