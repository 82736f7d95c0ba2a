#pragma once
// Per-component de Bruijn graphs: the FastaToDebruijn and QuantifyGraph
// sub-steps of Chrysalis (the paper lists them among the Chrysalis phases
// that stay serial in its parallelization).
//
// Nodes are the k-mers of the component's contigs in their literal
// orientation; an edge connects consecutive k-mers (a (k-1)-overlap, one
// appended base). QuantifyGraph adds per-node read support from the reads
// ReadsToTranscripts assigned to the component; Butterfly later uses the
// supports to rank branches during path reconstruction.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kmer/flat_index.hpp"
#include "seq/kmer.hpp"
#include "seq/sequence.hpp"

namespace trinity::chrysalis {

/// A de Bruijn graph over the k-mers of one component.
class DeBruijnGraph {
 public:
  /// Builds the graph from the component's contigs. Contigs shorter than k
  /// contribute nothing.
  DeBruijnGraph(const std::vector<seq::Sequence>& contigs, int k);

  [[nodiscard]] int k() const { return codec_.k(); }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// The packed k-mer of node `id`.
  [[nodiscard]] seq::KmerCode node_kmer(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// Node id of a k-mer, or -1 when absent.
  [[nodiscard]] std::int32_t node_id(seq::KmerCode code) const;

  /// Successor node when appending base code `b` (0..3), or -1.
  [[nodiscard]] std::int32_t successor(std::int32_t id, std::uint8_t b) const {
    return out_[static_cast<std::size_t>(id)][b];
  }

  /// Read support of a node (0 until quantify() ran).
  [[nodiscard]] std::uint32_t support(std::int32_t id) const {
    return support_[static_cast<std::size_t>(id)];
  }

  /// QuantifyGraph: adds +1 support to every node whose k-mer occurs in
  /// `read` on either strand.
  void quantify(const seq::Sequence& read);

  /// Nodes with in-degree 0, in id order — Butterfly's path start points.
  [[nodiscard]] std::vector<std::int32_t> source_nodes() const;

 private:
  /// Inserts a node if absent; returns its id.
  std::int32_t intern_node(seq::KmerCode code);
  /// Adds the edge from -> to (to = roll of from); no-op when present.
  void add_edge(std::int32_t from, std::int32_t to);

  void add_contig(const std::string& bases);

  seq::KmerCodec codec_;
  std::vector<seq::KmerCode> nodes_;
  kmer::FlatKmerIndex<std::int32_t> ids_;
  std::vector<std::array<std::int32_t, 4>> out_;
  std::vector<int> in_degree_;
  std::vector<std::uint32_t> support_;
  std::size_t num_edges_ = 0;
};

}  // namespace trinity::chrysalis
