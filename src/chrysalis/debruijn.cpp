#include "chrysalis/debruijn.hpp"

#include <sstream>
#include <stdexcept>

#include "seq/dna.hpp"

namespace trinity::chrysalis {

DeBruijnGraph::DeBruijnGraph(const std::vector<seq::Sequence>& contigs, int k) : k_(k) {
  const seq::KmerCodec codec(k);  // validates k
  for (const auto& contig : contigs) add_contig(contig.bases);
}

std::int32_t DeBruijnGraph::intern_node(seq::KmerCode code) {
  auto [it, inserted] = ids_.emplace(code, static_cast<std::int32_t>(nodes_.size()));
  if (inserted) {
    nodes_.push_back(code);
    out_.push_back({-1, -1, -1, -1});
    in_degree_.push_back(0);
    support_.push_back(0);
  }
  return it->second;
}

void DeBruijnGraph::add_edge(std::int32_t from, std::int32_t to) {
  const std::uint8_t b = seq::KmerCodec::last_base(nodes_[static_cast<std::size_t>(to)]);
  auto& slot = out_[static_cast<std::size_t>(from)][b];
  if (slot < 0) {
    slot = to;
    ++in_degree_[static_cast<std::size_t>(to)];
    ++num_edges_;
  }
}

void DeBruijnGraph::add_contig(const std::string& bases) {
  const seq::KmerCodec codec(k_);
  const auto occurrences = codec.extract(bases);
  std::int32_t prev_id = -1;
  std::size_t prev_pos = 0;
  for (const auto& occ : occurrences) {
    const std::int32_t id = intern_node(occ.code);
    // Consecutive window positions share a (k-1)-overlap; a gap (from an
    // invalid base) breaks the chain.
    if (prev_id >= 0 && occ.position == prev_pos + 1) {
      add_edge(prev_id, id);
    }
    prev_id = id;
    prev_pos = occ.position;
  }
}

void DeBruijnGraph::write(std::ostream& out) const {
  const seq::KmerCodec codec(k_);
  out << "#trinity-debruijn k=" << k_ << " nodes=" << nodes_.size()
      << " edges=" << num_edges_ << '\n';
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out << "N " << codec.decode(nodes_[i]) << ' ' << support_[i] << '\n';
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto succ : out_[i]) {
      if (succ >= 0) out << "E " << i << ' ' << succ << '\n';
    }
  }
}

DeBruijnGraph DeBruijnGraph::read(std::istream& in) {
  std::string header;
  std::getline(in, header);
  int k = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  if (std::sscanf(header.c_str(), "#trinity-debruijn k=%d nodes=%zu edges=%zu", &k, &nodes,
                  &edges) != 3) {
    throw std::runtime_error("DeBruijnGraph::read: bad header");
  }
  DeBruijnGraph g;
  g.k_ = k;
  const seq::KmerCodec codec(k);  // validates k

  std::string line;
  std::size_t seen_nodes = 0;
  std::size_t seen_edges = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    char tag = 0;
    row >> tag;
    if (tag == 'N') {
      std::string kmer;
      std::uint32_t support = 0;
      if (!(row >> kmer >> support) || kmer.size() != static_cast<std::size_t>(k)) {
        throw std::runtime_error("DeBruijnGraph::read: malformed node row");
      }
      const auto code = codec.encode(kmer);
      if (!code) throw std::runtime_error("DeBruijnGraph::read: invalid k-mer");
      const std::int32_t id = g.intern_node(*code);
      if (static_cast<std::size_t>(id) + 1 != g.nodes_.size()) {
        throw std::runtime_error("DeBruijnGraph::read: duplicate node");
      }
      g.support_[static_cast<std::size_t>(id)] = support;
      ++seen_nodes;
    } else if (tag == 'E') {
      std::int32_t from = 0;
      std::int32_t to = 0;
      if (!(row >> from >> to) || from < 0 || to < 0 ||
          static_cast<std::size_t>(from) >= g.nodes_.size() ||
          static_cast<std::size_t>(to) >= g.nodes_.size()) {
        throw std::runtime_error("DeBruijnGraph::read: dangling edge");
      }
      // Edges must respect the (k-1)-overlap invariant.
      if (codec.suffix(g.nodes_[static_cast<std::size_t>(from)]) !=
          codec.prefix(g.nodes_[static_cast<std::size_t>(to)])) {
        throw std::runtime_error("DeBruijnGraph::read: edge violates (k-1) overlap");
      }
      g.add_edge(from, to);
      ++seen_edges;
    } else {
      throw std::runtime_error("DeBruijnGraph::read: unknown row tag");
    }
  }
  if (seen_nodes != nodes || seen_edges != edges) {
    throw std::runtime_error("DeBruijnGraph::read: count mismatch with header");
  }
  return g;
}

std::int32_t DeBruijnGraph::node_id(seq::KmerCode code) const {
  const auto it = ids_.find(code);
  return it == ids_.end() ? -1 : it->second;
}

int DeBruijnGraph::out_degree(std::int32_t id) const {
  int d = 0;
  for (const auto succ : out_[static_cast<std::size_t>(id)]) {
    if (succ >= 0) ++d;
  }
  return d;
}

void DeBruijnGraph::quantify(const seq::Sequence& read) {
  const seq::KmerCodec codec(k_);
  auto bump = [&](const std::string& bases) {
    for (const auto& occ : codec.extract(bases)) {
      const std::int32_t id = node_id(occ.code);
      if (id >= 0) ++support_[static_cast<std::size_t>(id)];
    }
  };
  bump(read.bases);
  bump(seq::reverse_complement(read.bases));
}

std::vector<std::int32_t> DeBruijnGraph::source_nodes() const {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree_[i] == 0) out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

}  // namespace trinity::chrysalis
