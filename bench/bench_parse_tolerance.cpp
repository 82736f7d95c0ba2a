// What input tolerance costs — parser throughput under each ParsePolicy
// over a clean FASTQ read file, a corrupted copy (a percentage of records
// damaged with the corpus categories: flipped headers, bad separators,
// invalid bases, quality-length mismatches), and the clean reads as
// single-line FASTA, the shape of the pipeline's own reads.fa that
// ReadsToTranscripts streams.
//
// Strict mode over the corrupted file throws on the first malformed
// record, so its "corrupted" row reports the failure location instead of
// a throughput. Tolerant and repair complete; their rows report the exact
// quarantine/repair counts alongside the reads/s cost of scrubbing. Every
// row streams its file in chunks of 5,000 reads, as ReadsToTranscripts
// does, and times only the parse.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "io/error.hpp"
#include "seq/fasta.hpp"
#include "util/timer.hpp"

namespace {

struct Measurement {
  std::string policy;
  std::string input;  // "clean", "corrupted" (FASTQ) or "clean-fasta"
  bool completed = false;
  double wall_seconds = 0.0;
  std::int64_t records_ok = 0;
  std::int64_t quarantined = 0;
  std::int64_t repaired = 0;
  std::string error;  // strict-mode failure location
};

/// Writes `reads` as FASTQ, damaging every `corrupt_every`-th record
/// (0 = clean) by rotating through the malformed-record categories.
std::string write_reads(const std::vector<trinity::seq::Sequence>& reads,
                        const std::string& path, std::size_t corrupt_every) {
  std::ofstream out(path, std::ios::binary);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const auto& r = reads[i];
    std::string header = "@" + r.name;
    std::string bases = r.bases;
    char sep = '+';
    std::string quality(r.bases.size(), 'F');
    if (corrupt_every > 0 && i % corrupt_every == corrupt_every - 1) {
      switch ((i / corrupt_every) % 4) {
        case 0: header[0] = 'B'; break;                    // missing_header
        case 1: sep = 'x'; break;                          // bad_separator
        case 2: bases[bases.size() / 2] = '!'; break;      // invalid_character
        case 3: quality.pop_back(); break;                 // quality_length_mismatch
      }
    }
    out << header << '\n' << bases << '\n' << sep << '\n' << quality << '\n';
  }
  return path;
}

/// Reads per chunk: ReadsToTranscripts' default max_mem_reads.
constexpr std::size_t kChunkReads = 5000;

/// Streams `path` through FastaReader::read_chunk, as ReadsToTranscripts
/// does. Only the read_chunk calls are timed: each chunk is dropped after
/// its clock stops, so neither vector growth over the whole file nor the
/// destruction of its records is measured, and every row starts from an
/// allocator holding at most one chunk.
Measurement measure(const std::string& path, const std::string& input,
                    trinity::seq::ParsePolicy policy) {
  Measurement m;
  m.policy = trinity::seq::to_string(policy);
  m.input = input;
  trinity::util::Timer wall;
  try {
    trinity::seq::FastaReader reader(path, policy);
    for (;;) {
      wall.reset();
      const auto chunk = reader.read_chunk(kChunkReads);
      m.wall_seconds += wall.seconds();
      if (chunk.empty()) break;
      m.records_ok += static_cast<std::int64_t>(chunk.size());
    }
    m.completed = true;
    m.quarantined = static_cast<std::int64_t>(reader.diagnostics().records_quarantined());
    m.repaired = static_cast<std::int64_t>(reader.diagnostics().records_repaired);
  } catch (const trinity::io::ParseError& e) {
    m.wall_seconds += wall.seconds();  // up to the malformed record
    m.error = std::string(trinity::io::to_string(e.category())) + " at line " +
              std::to_string(e.line());
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  auto cfg = bench::bench_config("bench_parse_tolerance", "Parse tolerance: FASTA/FASTQ reader throughput per policy, clean vs corrupted input");
  cfg.flag_int("genes", 200, "genes to simulate (scales the dataset)");
  cfg.flag_int("corrupt-every", 100, "corrupt every Nth simulated record");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const auto corrupt_every = static_cast<std::size_t>(cfg.get_int("corrupt-every"));

  bench::banner("Parse tolerance",
                "FASTA/FASTQ reader throughput per policy, clean vs corrupted input");

  auto preset = sim::preset("sugarbeet_like");
  preset.transcriptome.num_genes = genes;
  const auto data = sim::simulate_dataset(preset);
  const auto& reads = data.reads.reads;

  const std::string dir = "/tmp/trinity_bench_parse";
  std::filesystem::create_directories(dir);
  const auto clean = write_reads(reads, dir + "/clean.fq", 0);
  const auto corrupted = write_reads(reads, dir + "/corrupted.fq", corrupt_every);
  const std::string clean_fasta = dir + "/clean.fa";
  seq::write_fasta(clean_fasta, reads);
  std::printf("workload: %zu reads; 1 in %zu records damaged in the corrupted copy\n\n",
              reads.size(), corrupt_every);

  std::vector<Measurement> series;
  for (const seq::ParsePolicy policy :
       {seq::ParsePolicy::kStrict, seq::ParsePolicy::kTolerant, seq::ParsePolicy::kRepair}) {
    series.push_back(measure(clean, "clean", policy));
    series.push_back(measure(corrupted, "corrupted", policy));
    series.push_back(measure(clean_fasta, "clean-fasta", policy));
  }

  std::printf("%-9s %-11s %10s %12s %10s %12s %9s\n", "policy", "input", "wall(s)",
              "reads/s", "ok", "quarantined", "repaired");
  for (const auto& m : series) {
    if (m.completed) {
      const double rate =
          m.wall_seconds > 0.0 ? static_cast<double>(m.records_ok) / m.wall_seconds : 0.0;
      std::printf("%-9s %-11s %10.4f %12.0f %10lld %12lld %9lld\n", m.policy.c_str(),
                  m.input.c_str(), m.wall_seconds, rate,
                  static_cast<long long>(m.records_ok),
                  static_cast<long long>(m.quarantined),
                  static_cast<long long>(m.repaired));
    } else {
      std::printf("%-9s %-11s %10.4f   ParseError: %s\n", m.policy.c_str(), m.input.c_str(),
                  m.wall_seconds, m.error.c_str());
    }
  }

  bench::JsonSink json(cfg, "parse_tolerance");
  for (const auto& m : series) {
    json.begin_entry();
    json.field("policy", m.policy);
    json.field("input", m.input);
    json.field("completed", static_cast<std::int64_t>(m.completed ? 1 : 0));
    json.field("wall_seconds", m.wall_seconds);
    json.field("records_ok", m.records_ok);
    json.field("records_quarantined", m.quarantined);
    json.field("records_repaired", m.repaired);
  }
  return 0;
}
