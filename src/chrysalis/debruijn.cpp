#include "chrysalis/debruijn.hpp"

namespace trinity::chrysalis {

DeBruijnGraph::DeBruijnGraph(const std::vector<seq::Sequence>& contigs, int k) : codec_(k) {
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
  std::int32_t prev_id = -1;
  std::size_t prev_pos = 0;
  codec_.for_each(bases, [&](const seq::KmerCodec::Window& w) {
    const std::int32_t id = intern_node(w.code);
    // Consecutive window positions share a (k-1)-overlap; a gap (from an
    // invalid base) breaks the chain.
    if (prev_id >= 0 && w.position == prev_pos + 1) add_edge(prev_id, id);
    prev_id = id;
    prev_pos = w.position;
  });
}

std::int32_t DeBruijnGraph::node_id(seq::KmerCode code) const {
  const auto it = ids_.find(code);
  return it == ids_.end() ? -1 : it->second;
}

void DeBruijnGraph::quantify(const seq::Sequence& read) {
  // The reverse strand's windows are the forward windows' rc codes.
  codec_.for_each(read.bases, [&](const seq::KmerCodec::Window& w) {
    for (const seq::KmerCode code : {w.code, w.rc}) {
      const std::int32_t id = node_id(code);
      if (id >= 0) ++support_[static_cast<std::size_t>(id)];
    }
  });
}

std::vector<std::int32_t> DeBruijnGraph::source_nodes() const {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree_[i] == 0) out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

}  // namespace trinity::chrysalis
