#include "simpi/context.hpp"

#include <exception>
#include <thread>

#include "trace/span_recorder.hpp"
#include "util/timer.hpp"

namespace trinity::simpi {
namespace {

// Wait sub-span names per op; literals so completed_span never copies on
// the hot path.
const char* wait_span_name(CommOp op) {
  switch (op) {
    case CommOp::kSend: return "send.wait";
    case CommOp::kRecv: return "recv.wait";
    case CommOp::kBarrier: return "barrier.wait";
    case CommOp::kBcast: return "bcast.wait";
    case CommOp::kGatherv: return "gatherv.wait";
    case CommOp::kAllgatherv: return "allgatherv.wait";
    case CommOp::kAlltoallv: return "alltoallv.wait";
    case CommOp::kReduce: return "reduce.wait";
    default: return "comm.wait";
  }
}

}  // namespace

// --- Context -----------------------------------------------------------------

Context::Context(World& world, int rank) : world_(world), rank_(rank) {}

int Context::size() const { return world_.size(); }

const CommCostModel& Context::cost_model() const { return world_.cost_model(); }

void Context::raw_send(int dest, int tag, std::span<const std::byte> bytes) {
  world_.check_abort();
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload.assign(bytes.begin(), bytes.end());
  world_.mailbox(dest).deliver(std::move(msg));
}

Message Context::raw_recv(int source, int tag) {
  try {
    return world_.mailbox(rank_).receive(source, tag);
  } catch (const MailboxAborted&) {
    throw AbortedError();
  }
}

Message Context::waited_recv(int source, int tag, CommOp op) {
  util::Timer wait;
  Message msg = raw_recv(source, tag);
  // The wait sub-span duration is the *same* measured value added to
  // CommStats.wait_seconds, so per-rank wait-span totals in the trace
  // reconcile with the run report's comm counters exactly.
  const double waited = wait.seconds();
  // An active WaitAttribution redirects the wait (row + span) to the outer
  // collective; payload accounting stays on the transport op's row.
  const CommOp wait_op = wait_override_.value_or(op);
  stats_.of(wait_op).wait_seconds += waited;
  stats_.of(op).bytes_received += msg.payload.size();
  trace::completed_span(wait_span_name(wait_op), trace::kCatSimpi, waited);
  return msg;
}

void Context::send_bytes(int dest, int tag, std::span<const std::byte> bytes) {
  if (tag < 0) throw std::invalid_argument("simpi: user tags must be >= 0");
  if (dest < 0 || dest >= size()) throw std::out_of_range("simpi: send dest out of range");
  trace::SpanScope span("send", trace::kCatSimpi);
  if (span) {
    span.arg("bytes", static_cast<double>(bytes.size()));
    span.arg("dest", dest);
  }
  fault_point(FaultOp::kSend);
  auto& s = stats_.of(CommOp::kSend);
  ++s.calls;
  s.bytes_sent += bytes.size();
  raw_send(dest, tag, bytes);
  comm_seconds_ += cost_model().p2p_cost(bytes.size());
}

Message Context::recv_bytes(int source, int tag) {
  if (tag < 0) throw std::invalid_argument("simpi: user tags must be >= 0");
  if (source != kAnySource && (source < 0 || source >= size())) {
    throw std::out_of_range("simpi: recv source out of range");
  }
  trace::SpanScope span("recv", trace::kCatSimpi);
  if (span) span.arg("source", source);
  fault_point(FaultOp::kRecv);
  ++stats_.of(CommOp::kRecv).calls;
  return waited_recv(source, tag, CommOp::kRecv);
}

void Context::barrier() {
  trace::SpanScope span("barrier", trace::kCatSimpi);
  fault_point(FaultOp::kBarrier);
  auto& s = stats_.of(CommOp::kBarrier);
  ++s.calls;
  util::Timer wait;
  world_.barrier_wait();
  const double waited = wait.seconds();
  s.wait_seconds += waited;
  trace::completed_span("barrier.wait", trace::kCatSimpi, waited);
  comm_seconds_ += cost_model().barrier_cost(size());
}

void Context::fault_point(FaultOp op) {
  const FaultPlan& plan = world_.fault_plan();
  if (!plan.enabled() || rank_ != plan.rank) return;
  const int entry = ++fault_entries_[static_cast<std::size_t>(op)];
  bool fire = plan.op == op && entry == plan.at_entry;
  if (!fire && plan.after_virtual_seconds >= 0.0) {
    fire = cpu_clock_.seconds() + comm_seconds_ >= plan.after_virtual_seconds;
  }
  if (!fire || !plan.consume_fire()) return;
  std::string what = "injected fault: rank " + std::to_string(rank_) + " killed at " +
                     to_string(op) + " entry " + std::to_string(entry);
  trace::instant("simpi.fault", trace::kCatSimpi, what,
                 {{"entry", static_cast<double>(entry)}});
  throw RankFaultError(what);
}

std::atomic<std::uint64_t>& Context::world_counter(int id) { return world_.counter(id); }

// --- World ---------------------------------------------------------------------

World::World(int nranks, CommCostModel model, FaultPlan fault)
    : model_(model), fault_(std::move(fault)) {
  if (nranks < 1) throw std::invalid_argument("simpi: world needs at least one rank");
  // Arm here so a plan the caller never armed still fires (fresh budget per
  // world); a pre-armed plan keeps its shared budget across launches.
  if (fault_.enabled()) fault_.arm();
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(&aborted_));
  }
}

std::atomic<std::uint64_t>& World::counter(int id) {
  std::scoped_lock lock(counters_mu_);
  auto& slot = counters_[id];
  if (!slot) slot = std::make_unique<std::atomic<std::uint64_t>>(0);
  return *slot;
}

void World::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& mb : mailboxes_) mb->wake_for_abort();
  barrier_cv_.notify_all();
}

void World::barrier_wait() {
  std::unique_lock lock(barrier_mu_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_arrived_ == size()) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock, [&] { return barrier_generation_ != my_generation || aborted(); });
  if (barrier_generation_ == my_generation && aborted()) throw AbortedError();
}

double skew_ratio(const std::vector<RankResult>& results) {
  if (results.empty()) return 1.0;
  double max = 0.0, sum = 0.0;
  for (const auto& r : results) {
    const double v = r.virtual_seconds();
    max = v > max ? v : max;
    sum += v;
  }
  const double mean = sum / static_cast<double>(results.size());
  return mean > 0.0 ? max / mean : 1.0;
}

// --- run -------------------------------------------------------------------------

std::vector<RankResult> run(int nranks, const std::function<void(Context&)>& fn,
                            CommCostModel model, FaultPlan fault) {
  World world(nranks, model, std::move(fault));
  std::vector<RankResult> results(static_cast<std::size_t>(nranks));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));

  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      // Rank attribution for every span recorded on this thread (collectives,
      // io calls, loop spans read it before forking their OpenMP team).
      trace::ScopedRank rank_scope(r);
      Context ctx(world, r);
      util::ThreadCpuTimer cpu;
      try {
        fn(ctx);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        world.abort();
      }
      auto& res = results[static_cast<std::size_t>(r)];
      res.rank = r;
      res.cpu_seconds = cpu.seconds();
      res.comm_seconds = ctx.comm_seconds();
      res.comm = ctx.comm_stats();
    });
  }
  for (auto& t : threads) t.join();

  // Prefer the root-cause exception over secondary AbortedErrors raised in
  // ranks that were merely woken by the teardown.
  std::exception_ptr fallback;
  for (const auto& err : errors) {
    if (!err) continue;
    if (!fallback) fallback = err;
    try {
      std::rethrow_exception(err);
    } catch (const AbortedError&) {
      continue;
    } catch (...) {
      throw;
    }
  }
  if (fallback) std::rethrow_exception(fallback);
  return results;
}

}  // namespace trinity::simpi
