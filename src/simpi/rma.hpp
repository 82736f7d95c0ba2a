#pragma once
// One-sided operations (the MPI-3 RMA analogue).
//
// The paper's future work proposes "a dynamic partitioning strategy to
// reduce this load imbalance" (Section V.A). The canonical MPI
// implementation is a shared work counter advanced with MPI_Fetch_and_op
// on a window exposed by rank 0; simpi models exactly that: named global
// counters living on the world, advanced atomically by any rank, each
// access charged one round trip of the communication cost model.

#include <cstdint>

#include "simpi/context.hpp"

namespace trinity::simpi {

/// A handle to a world-global 64-bit counter (an MPI_Win + MPI_Fetch_and_op
/// stand-in). Counters are created on first use and start at 0; they are
/// identified by a small integer id chosen by the application.
class SharedCounter {
 public:
  /// Binds counter `id` in the context's world. Ids are application-scoped;
  /// reusing an id across algorithm phases requires a reset() in between
  /// (collectively, or by one rank while others are quiescent).
  SharedCounter(Context& ctx, int id);

  /// Atomically adds `delta` and returns the PREVIOUS value
  /// (MPI_Fetch_and_op with MPI_SUM). Charges one RMA round trip.
  std::uint64_t fetch_add(std::uint64_t delta = 1);

  /// Resets the counter to `value`. NOT collective; callers must ensure no
  /// concurrent fetch_add is in flight (e.g. reset between barriers).
  void reset(std::uint64_t value = 0);

 private:
  Context& ctx_;
  int id_;
};

}  // namespace trinity::simpi
