// Microbenchmark behind the one-k-mer-table design, in three series.
//
// Lookup series: FlatKmerIndex vs the std::unordered_map<KmerCode, V> it
// replaced, on the exact access patterns of the fig07 workload — a count
// build with one insert per contig k-mer (the vote-map build's shape) and
// the weld-harvest / assign_read probe loop (one lookup per k-mer, hit-heavy
// for contigs, miss-heavy for reads). Both containers consume the same
// pre-extracted canonical code lists, so the measured difference is pure
// hash-table work. The checksum/size cross-check pins behavioural parity.
//
// Counting series: KmerCounter (partition-then-build over FlatKmerIndex)
// vs the counter it replaced, kept here as the baseline: 64 mutex-striped
// unordered_map shards filled from one OpenMP loop. Both count the
// workload's reads at --threads threads; the timed unit is add_sequences
// plus dump, and the sorted dumps must be identical.
//
// Walk series: one canonical pass over the workload's reads through
// KmerCodec::for_each (both strands rolled together, no allocation) vs the
// walk it replaced, kept here as the baseline: extract() materialises each
// read's windows, then a k-step loop reverse-complements every code. Both
// sum the canonical codes on one thread; the checksums must be equal.
//
// Host wall time, best of --repeats. --min-speedup, --min-count-speedup and
// --min-walk-speedup (default 1.0 each) make the binary fail when the new
// code stops beating its baseline by that factor — the scripts/check.sh
// perf gate.
//
// By default the series is written to BENCH_kmer_index.json in the working
// directory ({"bench":"kmer_index","series":[...]}) so repeated runs leave
// a comparable before/after trail.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "kmer/counter.hpp"
#include "kmer/flat_index.hpp"
#include "seq/kmer.hpp"

namespace {

using trinity::seq::KmerCode;
using trinity::seq::KmerCodec;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The reverse complement the loop-free KmerCodec::reverse_complement
/// replaced: one loop step per base.
KmerCode loop_reverse_complement(KmerCode code, int k) {
  KmerCode rc = 0;
  for (int i = 0; i < k; ++i) {
    rc = (rc << 2) | ((code & 3u) ^ 3u);
    code >>= 2;
  }
  return rc;
}

/// The canonical walk for_each replaced: materialise every window, then
/// canonicalise each code with the loop reverse complement.
std::vector<KmerCodec::Occurrence> baseline_canonical(const KmerCodec& codec,
                                                      std::string_view s) {
  auto occ = codec.extract(s);
  for (auto& o : occ) o.code = std::min(o.code, loop_reverse_complement(o.code, codec.k()));
  return occ;
}

/// Extracts canonical (k-1)-mer codes per sequence — the shared preprocessing
/// both containers consume, extracted once so the passes time only the
/// table operations.
std::vector<std::vector<KmerCode>> extract_codes(
    const std::vector<trinity::seq::Sequence>& seqs, int k) {
  const KmerCodec codec(k - 1);
  std::vector<std::vector<KmerCode>> out;
  out.reserve(seqs.size());
  for (const auto& s : seqs) {
    std::vector<KmerCode> codes;
    codec.for_each(s.bases, [&](const KmerCodec::Window& w) { codes.push_back(w.canonical()); });
    out.push_back(std::move(codes));
  }
  return out;
}

/// One timed canonical pass over `seqs`: windows seen and the sum of their
/// canonical codes.
struct WalkResult {
  double walk_s = 0.0;
  std::size_t windows = 0;
  std::uint64_t checksum = 0;
};

template <typename Walk>
WalkResult time_walk(const std::vector<trinity::seq::Sequence>& seqs, Walk&& walk) {
  WalkResult r;
  const double t0 = now_seconds();
  for (const auto& s : seqs) walk(s.bases, r);
  r.walk_s = now_seconds() - t0;
  return r;
}

/// One measured build+probe pass: `Index` is either container. The build
/// counts each contig code; the probe sums
/// hits over the read codes, like assign_read's bundle-map scan.
struct PassResult {
  double build_s = 0.0;
  double probe_s = 0.0;
  std::size_t entries = 0;
  std::uint64_t checksum = 0;
};

template <typename Index, typename Lookup>
PassResult run_pass(const std::vector<std::vector<KmerCode>>& contig_codes,
                    const std::vector<std::vector<KmerCode>>& read_codes,
                    std::size_t reserve_hint, Lookup&& lookup) {
  PassResult r;
  double t0 = now_seconds();
  Index counts;
  counts.reserve(reserve_hint);
  for (const auto& codes : contig_codes) {
    for (const KmerCode code : codes) ++counts[code];
  }
  r.build_s = now_seconds() - t0;
  r.entries = counts.size();

  t0 = now_seconds();
  std::uint64_t sum = 0;
  for (const auto& codes : read_codes) {
    for (const KmerCode code : codes) sum += lookup(counts, code);
  }
  r.probe_s = now_seconds() - t0;
  r.checksum = sum;
  return r;
}

/// The lock-striped counter KmerCounter replaced: the counting baseline.
class StripedCounter {
 public:
  explicit StripedCounter(int k) : codec_(k), shards_(kShards) {}

  void add_sequences(const std::vector<trinity::seq::Sequence>& seqs, int threads) {
    const auto n = static_cast<std::int64_t>(seqs.size());
#pragma omp parallel for schedule(dynamic, 64) num_threads(threads)
    for (std::int64_t i = 0; i < n; ++i) {
      for (const auto& occ : baseline_canonical(codec_, seqs[static_cast<std::size_t>(i)].bases)) {
        Shard& shard = shards_[static_cast<std::size_t>(occ.code) & (kShards - 1)];
        std::scoped_lock lock(shard.mu);
        ++shard.map[occ.code];
      }
    }
  }

  [[nodiscard]] std::vector<trinity::kmer::KmerCount> dump() const {
    std::vector<trinity::kmer::KmerCount> out;
    for (const auto& shard : shards_) {
      for (const auto& [code, count] : shard.map) out.push_back({code, count});
    }
    return out;
  }

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    std::mutex mu;
    std::unordered_map<KmerCode, std::uint32_t> map;
  };
  KmerCodec codec_;
  std::vector<Shard> shards_;
};

/// One timed count + dump; `records` is the dump sorted by code.
struct CountResult {
  double count_s = 0.0;
  std::vector<trinity::kmer::KmerCount> records;
};

template <typename Count>
CountResult time_count(Count&& count) {
  CountResult r;
  const double t0 = now_seconds();
  r.records = count();
  r.count_s = now_seconds() - t0;
  std::sort(r.records.begin(), r.records.end(),
            [](const auto& a, const auto& b) { return a.code < b.code; });
  return r;
}

bool same_records(const std::vector<trinity::kmer::KmerCount>& a,
                  const std::vector<trinity::kmer::KmerCount>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const auto& x, const auto& y) {
    return x.code == y.code && x.count == y.count;
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("bench_kmer_index",
             "flat open-addressing k-mer index vs std::unordered_map on the fig07 workload");
  cfg.flag_int("genes", 400, "genes to simulate (scales the dataset)")
      .flag_int("repeats", 5, "timed repetitions per container (minimum kept)")
      .flag_double("min-speedup", 1.0,
                   "fail (exit 1) unless the flat index's combined speedup reaches this; "
                   "0 disables the gate")
      .flag_int("threads", 4, "threads of both counters in the counting series")
      .flag_double("min-count-speedup", 1.0,
                   "fail (exit 1) unless KmerCounter's count+dump speedup over the "
                   "striped counter reaches this; 0 disables the gate")
      .flag_double("min-walk-speedup", 1.0,
                   "fail (exit 1) unless the for_each canonical walk's speedup over "
                   "extract + loop reverse complement reaches this; 0 disables the gate")
      .flag_string("csv", "", "also write the measured series as CSV to this path")
      .flag_string("json", "BENCH_kmer_index.json",
                   "write the series as one JSON document to this path");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;

  bench::banner("kmer-index",
                "flat open-addressing index vs std::unordered_map; partitioned vs striped counting");
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int repeats = static_cast<int>(cfg.get_int("repeats"));
  const auto w = bench::make_workload("sugarbeet_like", genes, "kmer_index");
  bench::describe(w);

  const auto contig_codes = extract_codes(w.contigs, bench::kK);
  const auto read_codes = extract_codes(w.dataset.reads.reads, bench::kK);
  const std::size_t reserve_hint = seq::total_bases(w.contigs);
  std::size_t probes = 0;
  for (const auto& codes : read_codes) probes += codes.size();

  // Best-of-N on each container; both get the same reserve-from-count hint.
  PassResult flat, baseline;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto f = run_pass<kmer::FlatKmerIndex<std::uint32_t>>(
        contig_codes, read_codes, reserve_hint,
        [](const kmer::FlatKmerIndex<std::uint32_t>& idx, KmerCode code) -> std::uint64_t {
          const std::uint32_t* hit = idx.lookup(code);
          return hit != nullptr ? *hit : 0;
        });
    const auto b = run_pass<std::unordered_map<KmerCode, std::uint32_t>>(
        contig_codes, read_codes, reserve_hint,
        [](const std::unordered_map<KmerCode, std::uint32_t>& idx,
           KmerCode code) -> std::uint64_t {
          const auto it = idx.find(code);
          return it != idx.end() ? it->second : 0;
        });
    if (rep == 0 || f.build_s + f.probe_s < flat.build_s + flat.probe_s) flat = f;
    if (rep == 0 || b.build_s + b.probe_s < baseline.build_s + baseline.probe_s) baseline = b;
  }

  if (flat.entries != baseline.entries || flat.checksum != baseline.checksum) {
    std::fprintf(stderr,
                 "bench_kmer_index: containers disagree (flat %zu entries / checksum %llu, "
                 "unordered_map %zu / %llu)\n",
                 flat.entries, static_cast<unsigned long long>(flat.checksum),
                 baseline.entries, static_cast<unsigned long long>(baseline.checksum));
    return 1;
  }

  // Counting series: the same reads through both counters.
  const auto& reads = w.dataset.reads.reads;
  const int threads = static_cast<int>(cfg.get_int("threads"));
  CountResult partitioned, striped;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto p = time_count([&] {
      kmer::CounterOptions o;
      o.k = bench::kK;
      o.num_threads = threads;
      kmer::KmerCounter counter(o);
      counter.add_sequences(reads);
      return counter.dump();
    });
    const auto b = time_count([&] {
      StripedCounter counter(bench::kK);
      counter.add_sequences(reads, threads);
      return counter.dump();
    });
    if (rep == 0 || p.count_s < partitioned.count_s) partitioned = p;
    if (rep == 0 || b.count_s < striped.count_s) striped = b;
  }
  if (!same_records(partitioned.records, striped.records)) {
    std::fprintf(stderr, "bench_kmer_index: counters disagree (partitioned %zu records, "
                         "striped %zu)\n",
                 partitioned.records.size(), striped.records.size());
    return 1;
  }
  const double count_speedup = striped.count_s / partitioned.count_s;

  // Walk series: one canonical pass over the reads, one thread.
  const KmerCodec codec(bench::kK);
  WalkResult walk, materialised;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto f = time_walk(reads, [&](const std::string& bases, WalkResult& r) {
      codec.for_each(bases, [&](const KmerCodec::Window& w) {
        ++r.windows;
        r.checksum += w.canonical();
      });
    });
    const auto b = time_walk(reads, [&](const std::string& bases, WalkResult& r) {
      for (const auto& occ : baseline_canonical(codec, bases)) {
        ++r.windows;
        r.checksum += occ.code;
      }
    });
    if (rep == 0 || f.walk_s < walk.walk_s) walk = f;
    if (rep == 0 || b.walk_s < materialised.walk_s) materialised = b;
  }
  if (walk.windows != materialised.windows || walk.checksum != materialised.checksum) {
    std::fprintf(stderr,
                 "bench_kmer_index: walks disagree (for_each %zu windows / checksum %llu, "
                 "extract %zu / %llu)\n",
                 walk.windows, static_cast<unsigned long long>(walk.checksum),
                 materialised.windows, static_cast<unsigned long long>(materialised.checksum));
    return 1;
  }
  const double walk_speedup = materialised.walk_s / walk.walk_s;

  const double build_speedup = baseline.build_s / flat.build_s;
  const double probe_speedup = baseline.probe_s / flat.probe_s;
  const double combined_speedup =
      (baseline.build_s + baseline.probe_s) / (flat.build_s + flat.probe_s);

  bench::CsvSink csv(cfg, "impl,build_s,probe_s,entries,probes,checksum,count_s,walk_s");
  bench::JsonSink json(cfg, "kmer_index");
  std::printf("%14s | %10s %10s | %10s %12s\n", "impl", "build(s)", "probe(s)", "entries",
              "probes");
  struct Row {
    const char* impl;
    const PassResult* r;
  };
  for (const Row& row : {Row{"flat", &flat}, Row{"unordered_map", &baseline}}) {
    std::printf("%14s | %10.4f %10.4f | %10zu %12zu\n", row.impl, row.r->build_s,
                row.r->probe_s, row.r->entries, probes);
    csv.row(row.impl, row.r->build_s, row.r->probe_s, row.r->entries, probes,
            row.r->checksum, 0.0, 0.0);
    json.begin_entry();
    json.field("impl", std::string(row.impl));
    json.field("build_s", row.r->build_s);
    json.field("probe_s", row.r->probe_s);
    json.field("entries", static_cast<std::int64_t>(row.r->entries));
    json.field("probes", static_cast<std::int64_t>(probes));
    json.field("checksum", static_cast<std::int64_t>(row.r->checksum));
    json.field("build_speedup", row.r == &flat ? build_speedup : 1.0);
    json.field("probe_speedup", row.r == &flat ? probe_speedup : 1.0);
    json.field("combined_speedup", row.r == &flat ? combined_speedup : 1.0);
  }
  std::printf("\nflat vs unordered_map: build %.2fx, probe %.2fx, combined %.2fx\n",
              build_speedup, probe_speedup, combined_speedup);

  std::printf("\n%14s | %10s | %10s %8s\n", "counter", "count(s)", "distinct", "threads");
  for (const auto& [impl, r] : {std::pair{"partitioned", &partitioned},
                                std::pair{"striped", &striped}}) {
    std::printf("%14s | %10.4f | %10zu %8d\n", impl, r->count_s, r->records.size(), threads);
    csv.row(impl, 0.0, 0.0, r->records.size(), 0, 0, r->count_s, 0.0);
    json.begin_entry();
    json.field("impl", std::string(impl));
    json.field("count_s", r->count_s);
    json.field("distinct", static_cast<std::int64_t>(r->records.size()));
    json.field("threads", static_cast<std::int64_t>(threads));
    json.field("count_speedup", r == &partitioned ? count_speedup : 1.0);
  }
  std::printf("\npartitioned vs striped counting (add_sequences + dump): %.2fx\n",
              count_speedup);

  std::printf("\n%15s | %10s | %10s %20s\n", "walk", "walk(s)", "windows", "checksum");
  for (const auto& [impl, r] : {std::pair{"for_each", &walk},
                                std::pair{"extract+loop_rc", &materialised}}) {
    std::printf("%15s | %10.4f | %10zu %20llu\n", impl, r->walk_s, r->windows,
                static_cast<unsigned long long>(r->checksum));
    csv.row(impl, 0.0, 0.0, r->windows, 0, r->checksum, 0.0, r->walk_s);
    json.begin_entry();
    json.field("impl", std::string(impl));
    json.field("walk_s", r->walk_s);
    json.field("windows", static_cast<std::int64_t>(r->windows));
    json.field("checksum", static_cast<std::int64_t>(r->checksum));
    json.field("walk_speedup", r == &walk ? walk_speedup : 1.0);
  }
  std::printf("\nfor_each vs extract + loop reverse complement (canonical walk): %.2fx\n",
              walk_speedup);

  const double min_speedup = cfg.get_double("min-speedup");
  if (min_speedup > 0.0 && combined_speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_kmer_index: combined speedup %.2fx is below --min-speedup %.2f\n",
                 combined_speedup, min_speedup);
    return 1;
  }
  const double min_count_speedup = cfg.get_double("min-count-speedup");
  if (min_count_speedup > 0.0 && count_speedup < min_count_speedup) {
    std::fprintf(stderr,
                 "bench_kmer_index: counting speedup %.2fx is below --min-count-speedup %.2f\n",
                 count_speedup, min_count_speedup);
    return 1;
  }
  const double min_walk_speedup = cfg.get_double("min-walk-speedup");
  if (min_walk_speedup > 0.0 && walk_speedup < min_walk_speedup) {
    std::fprintf(stderr,
                 "bench_kmer_index: walk speedup %.2fx is below --min-walk-speedup %.2f\n",
                 walk_speedup, min_walk_speedup);
    return 1;
  }
  return 0;
}
