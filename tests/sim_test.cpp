// Tests for the synthetic transcriptome and read simulator — the stand-in
// for the paper's datasets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "seq/dna.hpp"
#include "sim/transcriptome.hpp"

namespace trinity::sim {
namespace {

TranscriptomeOptions small_topts() {
  TranscriptomeOptions o;
  o.num_genes = 20;
  return o;
}

TEST(TranscriptomeTest, ProducesRequestedGenes) {
  util::Rng rng(1);
  const auto t = simulate_transcriptome(small_topts(), rng);
  EXPECT_EQ(t.genes.size(), 20u);
  EXPECT_EQ(t.transcripts.size(), t.gene_of_transcript.size());
  EXPECT_GE(t.transcripts.size(), t.genes.size());  // >= 1 isoform per gene
}

TEST(TranscriptomeTest, IsoformZeroIsFullExonChain) {
  util::Rng rng(2);
  const auto t = simulate_transcriptome(small_topts(), rng);
  for (const auto& gene : t.genes) {
    std::size_t full_length = 0;
    for (const auto& exon : gene.exons) full_length += exon.size();
    ASSERT_FALSE(gene.isoform_ids.empty());
    EXPECT_EQ(t.transcripts[gene.isoform_ids[0]].bases.size(), full_length);
  }
}

TEST(TranscriptomeTest, IsoformsAreSubsequencesOfExonChain) {
  util::Rng rng(3);
  const auto t = simulate_transcriptome(small_topts(), rng);
  for (const auto& gene : t.genes) {
    const std::string& full = t.transcripts[gene.isoform_ids[0]].bases;
    for (const auto iso : gene.isoform_ids) {
      EXPECT_LE(t.transcripts[iso].bases.size(), full.size());
      EXPECT_EQ(t.transcripts[iso].bases.find_first_not_of("ACGTacgt"), std::string::npos);
    }
  }
}

TEST(TranscriptomeTest, GeneOfTranscriptIsConsistent) {
  util::Rng rng(4);
  const auto t = simulate_transcriptome(small_topts(), rng);
  for (std::size_t g = 0; g < t.genes.size(); ++g) {
    for (const auto iso : t.genes[g].isoform_ids) {
      EXPECT_EQ(t.gene_of_transcript[iso], static_cast<std::int32_t>(g));
    }
  }
}

TEST(TranscriptomeTest, DeterministicForSameSeed) {
  util::Rng r1(7);
  util::Rng r2(7);
  const auto a = simulate_transcriptome(small_topts(), r1);
  const auto b = simulate_transcriptome(small_topts(), r2);
  ASSERT_EQ(a.transcripts.size(), b.transcripts.size());
  for (std::size_t i = 0; i < a.transcripts.size(); ++i) {
    EXPECT_EQ(a.transcripts[i].bases, b.transcripts[i].bases);
  }
}

TEST(TranscriptomeTest, SharedUtrCreatesOverlaps) {
  TranscriptomeOptions o = small_topts();
  o.num_genes = 60;
  o.shared_utr_probability = 1.0;  // force overlaps
  util::Rng rng(9);
  const auto t = simulate_transcriptome(o, rng);
  // Consecutive genes must share their UTR tails: gene g+1's first exon
  // begins with gene g's last-exon tail.
  std::size_t overlaps = 0;
  for (std::size_t g = 0; g + 1 < t.genes.size(); ++g) {
    const std::string& last_exon = t.genes[g].exons.back();
    const std::string tail =
        last_exon.substr(last_exon.size() - std::min<std::size_t>(o.shared_utr_length,
                                                                  last_exon.size()));
    if (t.genes[g + 1].exons.front().rfind(tail, 0) == 0) ++overlaps;
  }
  EXPECT_EQ(overlaps, t.genes.size() - 1);
}

TEST(TranscriptomeTest, BadOptionsThrow) {
  TranscriptomeOptions o = small_topts();
  o.min_exons = 0;
  util::Rng rng(1);
  EXPECT_THROW(simulate_transcriptome(o, rng), std::invalid_argument);
  o = small_topts();
  o.max_exon_length = o.min_exon_length - 1;
  EXPECT_THROW(simulate_transcriptome(o, rng), std::invalid_argument);
}

// --- reads ---------------------------------------------------------------------------

ReadSimOptions read_opts() {
  ReadSimOptions o;
  o.coverage = 10.0;
  o.error_rate = 0.0;
  return o;
}

TEST(ReadSimTest, PairedReadsComeInMatePairs) {
  util::Rng rng(11);
  const auto t = simulate_transcriptome(small_topts(), rng);
  const auto reads = simulate_reads(t, read_opts(), rng);
  ASSERT_GT(reads.reads.size(), 0u);
  EXPECT_EQ(reads.reads.size() % 2, 0u);
  for (std::size_t i = 0; i + 1 < reads.reads.size(); i += 2) {
    EXPECT_EQ(reads.reads[i].name.substr(reads.reads[i].name.size() - 2), "/1");
    EXPECT_EQ(reads.reads[i + 1].name.substr(reads.reads[i + 1].name.size() - 2), "/2");
    EXPECT_EQ(reads.transcript_of_read[i], reads.transcript_of_read[i + 1]);
  }
}

TEST(ReadSimTest, ErrorFreeReadsMatchSourceTranscript) {
  util::Rng rng(13);
  const auto t = simulate_transcriptome(small_topts(), rng);
  const auto reads = simulate_reads(t, read_opts(), rng);
  for (std::size_t i = 0; i < std::min<std::size_t>(reads.reads.size(), 50); ++i) {
    const auto& src = t.transcripts[static_cast<std::size_t>(reads.transcript_of_read[i])].bases;
    const std::string& bases = reads.reads[i].bases;
    const bool fwd = src.find(bases) != std::string::npos;
    const bool rev = src.find(seq::reverse_complement(bases)) != std::string::npos;
    EXPECT_TRUE(fwd || rev) << "read " << i << " not a substring of its source";
  }
}

TEST(ReadSimTest, ReadLengthHonored) {
  util::Rng rng(17);
  const auto t = simulate_transcriptome(small_topts(), rng);
  auto o = read_opts();
  o.read_length = 75;
  const auto reads = simulate_reads(t, o, rng);
  for (const auto& r : reads.reads) EXPECT_LE(r.bases.size(), 75u);
}

TEST(ReadSimTest, CoverageApproximatelyHonored) {
  util::Rng rng(19);
  const auto t = simulate_transcriptome(small_topts(), rng);
  auto o = read_opts();
  o.coverage = 20.0;
  o.expression_sigma = 0.0;  // uniform expression so coverage is exact-ish
  const auto reads = simulate_reads(t, o, rng);
  std::size_t read_bases = 0;
  for (const auto& r : reads.reads) read_bases += r.bases.size();
  std::size_t ref_bases = 0;
  for (const auto& tr : t.transcripts) ref_bases += tr.bases.size();
  const double achieved = static_cast<double>(read_bases) / static_cast<double>(ref_bases);
  EXPECT_NEAR(achieved, 20.0, 4.0);
}

TEST(ReadSimTest, ErrorRateApproximatelyHonored) {
  util::Rng rng(23);
  const auto t = simulate_transcriptome(small_topts(), rng);
  auto o = read_opts();
  o.error_rate = 0.02;
  o.paired = false;
  const auto noisy = simulate_reads(t, o, rng);

  std::size_t mismatches = 0;
  std::size_t bases = 0;
  for (std::size_t i = 0; i < noisy.reads.size(); ++i) {
    const auto& src =
        t.transcripts[static_cast<std::size_t>(noisy.transcript_of_read[i])].bases;
    // Locate by brute force against the error-free source: count the
    // placement with the fewest mismatches.
    const std::string& r = noisy.reads[i].bases;
    std::size_t best = r.size();
    for (std::size_t p = 0; p + r.size() <= src.size(); ++p) {
      std::size_t mm = 0;
      for (std::size_t j = 0; j < r.size() && mm < best; ++j) {
        if (src[p + j] != r[j]) ++mm;
      }
      best = std::min(best, mm);
    }
    mismatches += best;
    bases += r.size();
    if (bases > 50000) break;
  }
  const double rate = static_cast<double>(mismatches) / static_cast<double>(bases);
  EXPECT_NEAR(rate, 0.02, 0.008);
}

TEST(ReadSimTest, ExpressionDynamicRangeIsWide) {
  util::Rng rng(29);
  TranscriptomeOptions to = small_topts();
  to.num_genes = 50;
  const auto t = simulate_transcriptome(to, rng);
  auto o = read_opts();
  o.expression_sigma = 2.0;
  const auto reads = simulate_reads(t, o, rng);
  std::vector<std::size_t> per_transcript(t.transcripts.size(), 0);
  for (const auto tr : reads.transcript_of_read) {
    ++per_transcript[static_cast<std::size_t>(tr)];
  }
  const auto minmax = std::minmax_element(per_transcript.begin(), per_transcript.end());
  // Log-normal sigma=2 produces orders-of-magnitude spread.
  EXPECT_GT(*minmax.second, 10 * std::max<std::size_t>(*minmax.first, 1));
}

TEST(ReadSimTest, QualityStringMarksInjectedErrors) {
  util::Rng rng(31);
  const auto t = simulate_transcriptome(small_topts(), rng);
  auto o = read_opts();
  o.error_rate = 0.03;
  o.paired = false;
  const auto reads = simulate_reads(t, o, rng);
  ASSERT_FALSE(reads.reads.empty());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < reads.reads.size() && checked < 30; ++i, ++checked) {
    const auto& read = reads.reads[i];
    ASSERT_EQ(read.quality.size(), read.bases.size());
    const auto& src =
        t.transcripts[static_cast<std::size_t>(reads.transcript_of_read[i])].bases;
    // Error-free reconstruction: find the placement (single-end reads are
    // forward substrings before errors), then verify mismatches <-> '#'.
    const std::string clean = [&] {
      std::string best;
      std::size_t best_mm = read.bases.size() + 1;
      for (std::size_t p = 0; p + read.bases.size() <= src.size(); ++p) {
        std::size_t mm = 0;
        for (std::size_t j = 0; j < read.bases.size(); ++j) {
          if (src[p + j] != read.bases[j]) ++mm;
        }
        if (mm < best_mm) {
          best_mm = mm;
          best = src.substr(p, read.bases.size());
        }
      }
      return best;
    }();
    ASSERT_FALSE(clean.empty());
    for (std::size_t j = 0; j < read.bases.size(); ++j) {
      if (read.quality[j] == '#') {
        EXPECT_NE(read.bases[j], clean[j]) << "low-quality base should be an error";
      } else {
        EXPECT_EQ(read.bases[j], clean[j]) << "high-quality base should be clean";
      }
    }
  }
}

TEST(PresetTest, KnownPresetsConstruct) {
  for (const auto* name :
       {"tiny", "sugarbeet_like", "whitefly_like", "schizophrenia_like", "drosophila_like"}) {
    const auto p = preset(name);
    EXPECT_EQ(p.name, name);
    EXPECT_GT(p.transcriptome.num_genes, 0u);
  }
}

TEST(PresetTest, UnknownPresetThrows) {
  EXPECT_THROW(preset("maize"), std::invalid_argument);
}

TEST(PresetTest, TinyDatasetSimulatesEndToEnd) {
  const auto d = simulate_dataset(preset("tiny"));
  EXPECT_GT(d.transcriptome.transcripts.size(), 0u);
  EXPECT_GT(d.reads.reads.size(), 100u);
}

TEST(PresetTest, SugarbeetIsLargestPreset) {
  // The paper: "Our sugarbeet dataset is larger than a typical test
  // dataset" — the preset hierarchy mirrors that.
  const auto sugarbeet = preset("sugarbeet_like");
  for (const auto* other : {"whitefly_like", "schizophrenia_like", "drosophila_like"}) {
    EXPECT_GT(sugarbeet.transcriptome.num_genes, preset(other).transcriptome.num_genes);
  }
}

}  // namespace
}  // namespace trinity::sim
