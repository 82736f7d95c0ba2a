#include "chrysalis/components_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/io_file.hpp"

namespace trinity::chrysalis {

namespace {
constexpr const char* kHeaderTag = "#trinity-components";
}

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
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_components: cannot open '" + path + "'");

  std::string tag;
  std::size_t num_components = 0;
  std::size_t num_contigs = 0;
  in >> tag >> num_components >> num_contigs;
  if (!in || tag != kHeaderTag) {
    throw std::runtime_error("read_components: bad header in '" + path + "'");
  }

  ComponentSet out;
  out.component_of.assign(num_contigs, -1);
  out.components.reserve(num_components);
  std::string line;
  std::getline(in, line);  // consume the header's newline
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("read_components: malformed row in '" + path + "'");
    }
    Component comp;
    comp.id = static_cast<std::int32_t>(std::stol(line.substr(0, colon)));
    std::istringstream members(line.substr(colon + 1));
    std::int32_t contig = 0;
    while (members >> contig) {
      if (contig < 0 || static_cast<std::size_t>(contig) >= num_contigs) {
        throw std::runtime_error("read_components: contig id out of range in '" + path + "'");
      }
      if (out.component_of[static_cast<std::size_t>(contig)] != -1) {
        throw std::runtime_error("read_components: contig assigned twice in '" + path + "'");
      }
      out.component_of[static_cast<std::size_t>(contig)] = comp.id;
      comp.contig_ids.push_back(contig);
    }
    if (comp.contig_ids.empty()) {
      throw std::runtime_error("read_components: empty component in '" + path + "'");
    }
    out.components.push_back(std::move(comp));
  }
  if (out.components.size() != num_components) {
    throw std::runtime_error("read_components: component count mismatch in '" + path + "'");
  }
  for (const auto c : out.component_of) {
    if (c == -1) {
      throw std::runtime_error("read_components: unassigned contig in '" + path + "'");
    }
  }
  return out;
}

std::vector<ReadAssignment> read_assignments(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_assignments: cannot open '" + path + "'");
  std::vector<ReadAssignment> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    ReadAssignment a;
    if (!(row >> a.read_index >> a.component >> a.shared_kmers >> a.region_begin >>
          a.region_end)) {
      throw std::runtime_error("read_assignments: malformed row in '" + path + "'");
    }
    out.push_back(a);
  }
  return out;
}

}  // namespace trinity::chrysalis
