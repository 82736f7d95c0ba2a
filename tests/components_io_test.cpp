// Tests for the Chrysalis file-interchange formats (components and read
// assignments), the glue that lets the stages run as separate processes.

#include <gtest/gtest.h>

#include <fstream>

#include "chrysalis/components_io.hpp"
#include "io/error.hpp"
#include "test_helpers.hpp"

namespace trinity::chrysalis {
namespace {

using trinity::testing::TempDir;

/// Expects `load(path)` to throw io::ParseError at (line, byte offset).
template <typename Load>
void expect_parse_error(Load load, const std::string& path, io::ParseCategory category,
                        std::size_t line, std::uint64_t byte_offset) {
  try {
    (void)load(path);
    ADD_FAILURE() << "expected ParseError from " << path;
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), category) << e.what();
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_EQ(e.byte_offset(), byte_offset) << e.what();
  }
}

TEST(ComponentsIoTest, RoundTripsClusters) {
  const TempDir dir("cio1");
  const auto original = cluster_contigs(9, {{0, 3}, {3, 7}, {1, 2}, {5, 8}});
  write_components(dir.file("c.txt"), original);
  const auto loaded = read_components(dir.file("c.txt"));

  EXPECT_EQ(loaded.component_of, original.component_of);
  ASSERT_EQ(loaded.num_components(), original.num_components());
  for (std::size_t i = 0; i < original.num_components(); ++i) {
    EXPECT_EQ(loaded.components[i].id, original.components[i].id);
    EXPECT_EQ(loaded.components[i].contig_ids, original.components[i].contig_ids);
  }
}

TEST(ComponentsIoTest, RoundTripsSingletonsOnly) {
  const TempDir dir("cio2");
  const auto original = cluster_contigs(5, {});
  write_components(dir.file("c.txt"), original);
  const auto loaded = read_components(dir.file("c.txt"));
  EXPECT_EQ(loaded.component_of, original.component_of);
}

TEST(ComponentsIoTest, RoundTripsEmptySet) {
  const TempDir dir("cio3");
  write_components(dir.file("c.txt"), cluster_contigs(0, {}));
  const auto loaded = read_components(dir.file("c.txt"));
  EXPECT_EQ(loaded.num_components(), 0u);
  EXPECT_TRUE(loaded.component_of.empty());
}

TEST(ComponentsIoTest, MissingFileThrows) {
  EXPECT_THROW(read_components("/no/such/components.txt"), std::runtime_error);
}

TEST(ComponentsIoTest, BadHeaderThrows) {
  const TempDir dir("cio4");
  std::ofstream(dir.file("c.txt")) << "#something-else 1 1\n0: 0\n";
  expect_parse_error(read_components, dir.file("c.txt"), io::ParseCategory::kMissingHeader, 1,
                     0);
}

TEST(ComponentsIoTest, HeaderCountsAreBoundedByFileSize) {
  // A header claiming 2^60 contigs must fail before anything is allocated.
  const TempDir dir("cio9");
  std::ofstream(dir.file("c.txt")) << "#trinity-components 1 1152921504606846976\n0: 0\n";
  expect_parse_error(read_components, dir.file("c.txt"), io::ParseCategory::kTruncatedRecord,
                     1, 0);
  std::ofstream(dir.file("d.txt")) << "#trinity-components 1152921504606846976 1\n0: 0\n";
  expect_parse_error(read_components, dir.file("d.txt"), io::ParseCategory::kTruncatedRecord,
                     1, 0);
}

TEST(ComponentsIoTest, RowMustCarryItsIndexAsId) {
  // cluster_contigs numbers components densely: a lone row with id 7 used
  // to index past Butterfly's per-component buckets.
  const TempDir dir("cio10");
  std::ofstream(dir.file("c.txt")) << "#trinity-components 1 1\n7: 0\n";
  expect_parse_error(read_components, dir.file("c.txt"), io::ParseCategory::kInvalidCharacter,
                     2, 24);
  std::ofstream(dir.file("d.txt")) << "#trinity-components 2 2\n1: 0\n0: 1\n";
  expect_parse_error(read_components, dir.file("d.txt"), io::ParseCategory::kInvalidCharacter,
                     2, 24);
}

TEST(ComponentsIoTest, NonNumericFieldsAreTypedErrors) {
  const TempDir dir("cio11");
  std::ofstream(dir.file("a.txt")) << "#trinity-components 1 1\nx: 0\n";
  expect_parse_error(read_components, dir.file("a.txt"), io::ParseCategory::kInvalidCharacter,
                     2, 24);
  std::ofstream(dir.file("b.txt")) << "#trinity-components 1 2\n0: 0 1y\n";
  expect_parse_error(read_components, dir.file("b.txt"), io::ParseCategory::kInvalidCharacter,
                     2, 24);
  std::ofstream(dir.file("c.txt")) << "#trinity-components one 1\n0: 0\n";
  expect_parse_error(read_components, dir.file("c.txt"), io::ParseCategory::kInvalidCharacter,
                     1, 0);
}

TEST(ComponentsIoTest, OutOfRangeContigThrows) {
  const TempDir dir("cio5");
  std::ofstream(dir.file("c.txt")) << "#trinity-components 1 2\n0: 0 5\n";
  EXPECT_THROW(read_components(dir.file("c.txt")), std::runtime_error);
}

TEST(ComponentsIoTest, DuplicateMembershipThrows) {
  const TempDir dir("cio6");
  std::ofstream(dir.file("c.txt")) << "#trinity-components 2 2\n0: 0 1\n1: 1\n";
  EXPECT_THROW(read_components(dir.file("c.txt")), std::runtime_error);
}

TEST(ComponentsIoTest, UnassignedContigThrows) {
  const TempDir dir("cio7");
  std::ofstream(dir.file("c.txt")) << "#trinity-components 1 3\n0: 0 1\n";
  // Three contigs and a component need at least 8 body bytes; this has 7.
  expect_parse_error(read_components, dir.file("c.txt"), io::ParseCategory::kTruncatedRecord,
                     1, 0);
  // Padded past the size bound, the missing contig is reported at the end
  // of the file: line 3, byte 24 + 9.
  std::ofstream(dir.file("d.txt")) << "#trinity-components 1 3\n0: 0   1\n";
  expect_parse_error(read_components, dir.file("d.txt"), io::ParseCategory::kTruncatedRecord,
                     3, 33);
}

TEST(ComponentsIoTest, CountMismatchThrows) {
  const TempDir dir("cio8");
  std::ofstream(dir.file("c.txt")) << "#trinity-components 2 1\n0: 0\n";
  EXPECT_THROW(read_components(dir.file("c.txt")), std::runtime_error);
}

TEST(AssignmentsIoTest, RoundTripsThroughTsv) {
  const TempDir dir("aio1");
  std::vector<ReadAssignment> original(4);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i].read_index = static_cast<std::int64_t>(i);
    original[i].component = static_cast<std::int32_t>(i % 2 == 0 ? i : -1);
    original[i].shared_kmers = static_cast<std::uint32_t>(10 * i);
    original[i].region_begin = static_cast<std::uint32_t>(i);
    original[i].region_end = static_cast<std::uint32_t>(i + 60);
  }
  detail::write_assignments(dir.file("a.tsv"), original);
  const auto loaded = read_assignments(dir.file("a.tsv"));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].read_index, original[i].read_index);
    EXPECT_EQ(loaded[i].component, original[i].component);
    EXPECT_EQ(loaded[i].shared_kmers, original[i].shared_kmers);
    EXPECT_EQ(loaded[i].region_begin, original[i].region_begin);
    EXPECT_EQ(loaded[i].region_end, original[i].region_end);
  }
}

TEST(AssignmentsIoTest, MalformedRowThrows) {
  const TempDir dir("aio2");
  std::ofstream(dir.file("a.tsv")) << "0\t1\t5\t0\t60\n0\t1\tnot_a_number\t0\t60\n";
  expect_parse_error(read_assignments, dir.file("a.tsv"), io::ParseCategory::kInvalidCharacter,
                     2, 11);
  // A non-numeric component used to escape as a bare std::stol error.
  std::ofstream(dir.file("b.tsv")) << "0\tabc\t3\t0\t25\n";
  expect_parse_error(read_assignments, dir.file("b.tsv"), io::ParseCategory::kInvalidCharacter,
                     1, 0);
  std::ofstream(dir.file("c.tsv")) << "0\t1\t3\t0\n";  // four fields
  expect_parse_error(read_assignments, dir.file("c.tsv"), io::ParseCategory::kInvalidCharacter,
                     1, 0);
}

TEST(AssignmentsIoTest, EmptyFileYieldsEmptyVector) {
  const TempDir dir("aio3");
  std::ofstream(dir.file("a.tsv")).close();
  EXPECT_TRUE(read_assignments(dir.file("a.tsv")).empty());
}

}  // namespace
}  // namespace trinity::chrysalis
