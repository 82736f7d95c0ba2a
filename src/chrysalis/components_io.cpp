#include "chrysalis/components_io.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "io/io_file.hpp"

namespace trinity::chrysalis {

namespace {
constexpr const char* kHeaderTag = "#trinity-components";
}  // namespace

void write_components(const std::string& path, const ComponentSet& components) {
  io::BufferedWriter out(path);
  out << kHeaderTag << ' ' << components.components.size() << ' '
      << components.component_of.size() << '\n';
  for (const auto& comp : components.components) {
    out << comp.id << ':';
    for (const auto id : comp.contig_ids) out << ' ' << id;
    out << '\n';
  }
  out.close();
}

ComponentSet read_components(const std::string& path) {
  io::LineCursor cursor(path, "read_components");
  std::istringstream header(cursor.next() ? cursor.line() : std::string());
  std::string tag, components_text, contigs_text, extra;
  if (!(header >> tag >> components_text >> contigs_text) || tag != kHeaderTag ||
      header >> extra) {
    cursor.fail(io::ParseCategory::kMissingHeader,
                std::string("expected '") + kHeaderTag + " <components> <contigs>'");
  }
  const auto num_components = cursor.number<std::size_t>(components_text, "component count");
  const auto num_contigs = cursor.number<std::size_t>(contigs_text, "contig count");
  // Every component row and every contig id takes at least two bytes
  // ("0:" and " 0"), so bound the header by the file before allocating.
  const std::uint64_t size = io::file_size(path);
  const std::uint64_t body = size - std::min<std::uint64_t>(size, cursor.line().size() + 1);
  if (num_contigs > body / 2 || num_components > body / 2 - num_contigs) {
    cursor.fail(io::ParseCategory::kTruncatedRecord,
                "header claims " + std::to_string(num_components) + " components over " +
                    std::to_string(num_contigs) + " contigs, more than the " +
                    std::to_string(body) + "-byte body holds");
  }

  ComponentSet out;
  out.component_of.assign(num_contigs, -1);
  out.components.reserve(num_components);
  while (cursor.next()) {
    const std::string& line = cursor.line();
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      cursor.fail(io::ParseCategory::kInvalidCharacter, "expected '<id>: <contig> ...'");
    }
    // cluster_contigs numbers components densely: row j carries id j.
    const std::size_t row = out.components.size();
    Component comp;
    comp.id = cursor.number<std::int32_t>(std::string_view(line).substr(0, colon),
                                          "component id");
    if (static_cast<std::size_t>(comp.id) != row || row >= num_components) {
      cursor.fail(io::ParseCategory::kInvalidCharacter,
                  "component row " + std::to_string(row) + " carries id " +
                      std::to_string(comp.id) + " (header declares " +
                      std::to_string(num_components) + " components)");
    }
    std::istringstream members(line.substr(colon + 1));
    std::string token;
    while (members >> token) {
      const auto contig = cursor.number<std::int32_t>(token, "contig id");
      if (contig < 0 || static_cast<std::size_t>(contig) >= num_contigs) {
        cursor.fail(io::ParseCategory::kInvalidCharacter,
                    "contig id " + token + " outside [0, " + std::to_string(num_contigs) + ")");
      }
      if (out.component_of[static_cast<std::size_t>(contig)] != -1) {
        cursor.fail(io::ParseCategory::kInvalidCharacter,
                    "contig " + token + " assigned twice");
      }
      out.component_of[static_cast<std::size_t>(contig)] = comp.id;
      comp.contig_ids.push_back(contig);
    }
    if (comp.contig_ids.empty()) {
      cursor.fail(io::ParseCategory::kInvalidCharacter, "empty component");
    }
    out.components.push_back(std::move(comp));
  }
  if (out.components.size() != num_components) {
    cursor.fail(io::ParseCategory::kTruncatedRecord,
                "file ends after " + std::to_string(out.components.size()) + " of " +
                    std::to_string(num_components) + " components");
  }
  for (std::size_t c = 0; c < num_contigs; ++c) {
    if (out.component_of[c] == -1) {
      cursor.fail(io::ParseCategory::kTruncatedRecord,
                  "file ends with contig " + std::to_string(c) + " in no component");
    }
  }
  return out;
}

std::vector<ReadAssignment> read_assignments(const std::string& path) {
  io::LineCursor cursor(path, "read_assignments");
  std::vector<ReadAssignment> out;
  while (cursor.next()) {
    if (cursor.line().empty()) continue;
    std::istringstream row(cursor.line());
    std::string fields[5];
    std::string extra;
    if (!(row >> fields[0] >> fields[1] >> fields[2] >> fields[3] >> fields[4]) ||
        row >> extra) {
      cursor.fail(io::ParseCategory::kInvalidCharacter,
                  "expected 5 fields: read, component, shared k-mers, region begin, end");
    }
    ReadAssignment a;
    a.read_index = cursor.number<std::int64_t>(fields[0], "read index");
    a.component = cursor.number<std::int32_t>(fields[1], "component");
    a.shared_kmers = cursor.number<std::uint32_t>(fields[2], "shared k-mer count");
    a.region_begin = cursor.number<std::uint32_t>(fields[3], "region begin");
    a.region_end = cursor.number<std::uint32_t>(fields[4], "region end");
    out.push_back(a);
  }
  return out;
}

}  // namespace trinity::chrysalis
