#pragma once
// The one chunk loop of the hybrid Chrysalis stages, and its OpenMP team
// sizing.
//
// GraphFromFasta's loops (paper Section III.B) and ReadsToTranscripts'
// stream (Section III.C) are the same idea: a rank takes the chunks it owns
// and its OpenMP threads split each chunk. chunk_loop is that idea, written
// once. The caller says which chunks through a *pull* (chunked round robin,
// a block, a dynamic claim, a parsed or received read chunk) and what to do
// with one item through a *body*.
//
// Measurement rule: a loop's virtual duration on one simulated node is the
// CPU work its OpenMP team actually performed (per-thread CPU clocks,
// summed, less what the pulls took) divided by the modeled per-node thread
// count. Intra-node dynamic scheduling divides work almost evenly — the
// premise the paper inherits from the existing OpenMP implementation — so
// the quotient is the modeled loop time, while imbalance ACROSS ranks is
// preserved exactly because each rank's work is measured rather than
// modeled. A pull charges its own cost where the model counts one.

#include <omp.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>

#include "trace/span_recorder.hpp"
#include "util/timer.hpp"

namespace trinity::chrysalis {

/// Real OpenMP team size: explicit request wins; hybrid ranks default to
/// one worker each (ranks are already threads — avoid quadratic
/// oversubscription of the host), shared runs use the whole machine.
inline int resolve_omp_threads(int requested, bool hybrid) {
  if (requested > 0) return requested;
  return hybrid ? 1 : omp_get_max_threads();
}

/// Runs `body(chunk, i, tid)` for every item i in [0, chunk.size()) of every
/// chunk `pull` yields, with an OpenMP team of `real_threads`, and returns
/// the team's summed CPU seconds, less the pulls', divided by
/// `model_threads` — the loop's virtual duration on one simulated node.
///
/// `pull(chunk)` replaces `chunk` with the next chunk this rank processes;
/// an empty chunk ends the loop. It runs only on the calling thread (the
/// team's master), so it may call simpi. One OpenMP region serves the whole
/// loop: while the team runs chunk i with a dynamic `omp for`, the master
/// pulls chunk i+1 into the other buffer and then joins, so at most two
/// chunks are live. A team of one has nothing to overlap the pull with: it
/// runs chunk i, then pulls chunk i+1 into the same buffer, holding one
/// chunk. An exception from `pull` ends the loop after the chunk in flight
/// and is rethrown once the region has closed.
///
/// When `trace_name` is set and a trace::SpanRecorder is installed, each
/// team thread records one span per chunk (category "loop") with the
/// chunk's ordinal and the number of items it ran. The rank is read from
/// trace::current_rank() before the region forks, because OpenMP workers
/// do not inherit the rank thread's thread_locals.
template <typename Chunk, typename Pull, typename Body>
double chunk_loop(int real_threads, int model_threads, const char* trace_name, Pull&& pull,
                  Body&& body) {
  std::array<Chunk, 2> chunks{};
  pull(chunks[0]);
  bool stop = chunks[0].size() == 0;
  std::exception_ptr error;
  double pull_cpu = 0.0;
  double team_cpu = 0.0;
  const bool traced = trace_name != nullptr && trace::enabled();
  const int trace_rank = traced ? trace::current_rank() : -1;
  // Each thread's CPU clock is read once per loop, so the clock's coarse
  // tick (10 ms on some kernels) is paid once and not once per chunk.
#pragma omp parallel num_threads(real_threads) reduction(+ : team_cpu)
  {
    util::ThreadCpuTimer cpu;
    const int tid = omp_get_thread_num();
    const bool read_ahead = omp_get_num_threads() > 1;
    std::size_t cur = 0;
    const auto pull_into = [&](std::size_t buffer) {
      util::ThreadCpuTimer pull_timer;
      try {
        pull(chunks[buffer]);
      } catch (...) {
        error = std::current_exception();
      }
      pull_cpu += pull_timer.seconds();
    };
    for (std::int64_t chunk_no = 0; !stop; ++chunk_no) {
      const std::size_t next = read_ahead ? 1 - cur : cur;
      if (tid == 0 && read_ahead) pull_into(next);
      const Chunk& chunk = chunks[cur];
      std::optional<trace::SpanScope> span;
      if (traced) span.emplace(trace_name, trace::kCatLoop, trace_rank, tid);
      std::int64_t items = 0;
      const auto size = static_cast<std::int64_t>(chunk.size());
#pragma omp for schedule(dynamic)
      for (std::int64_t i = 0; i < size; ++i) {
        body(chunk, static_cast<std::size_t>(i), tid);
        ++items;
      }
      if (span) {
        span->arg("chunk", static_cast<double>(chunk_no));
        span->arg("items", static_cast<double>(items));
        span.reset();
      }
      if (!read_ahead) pull_into(next);  // replaces the finished chunk
      cur = next;
#pragma omp single
      stop = error != nullptr || chunks[cur].size() == 0;
    }
    team_cpu += cpu.seconds();
  }
  if (error) std::rethrow_exception(error);
  return (team_cpu - pull_cpu) / static_cast<double>(std::max(model_threads, 1));
}

}  // namespace trinity::chrysalis
