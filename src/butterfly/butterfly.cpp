#include "butterfly/butterfly.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "chrysalis/scaffold.hpp"
#include "seq/dna.hpp"
#include "seq/kmer.hpp"
#include "util/hash.hpp"

namespace trinity::butterfly {

namespace {

/// Turns a node-id path into its base sequence.
std::string path_to_sequence(const chrysalis::DeBruijnGraph& graph,
                             const std::vector<std::int32_t>& path) {
  const seq::KmerCodec codec(graph.k());
  std::string out = codec.decode(graph.node_kmer(path.front()));
  for (std::size_t i = 1; i < path.size(); ++i) {
    out.push_back(seq::code_to_base(seq::KmerCodec::last_base(graph.node_kmer(path[i]))));
  }
  return out;
}

std::uint64_t mix_tie(std::int32_t node, std::uint64_t salt) {
  return util::mix64(static_cast<std::uint64_t>(node) ^ (salt * util::kGoldenGamma));
}

/// Depth-first enumeration of support-ranked linear paths from `start`.
/// Branches explore higher-support successors first; a per-path visited
/// set breaks cycles; enumeration stops once `paths` reaches the cap.
void enumerate_paths(const chrysalis::DeBruijnGraph& graph, std::int32_t start,
                     const ButterflyOptions& options,
                     std::vector<std::vector<std::int32_t>>& paths) {
  struct Frame {
    std::int32_t node;
    std::vector<std::int32_t> successors;  // remaining, best first
  };

  std::vector<std::int32_t> path{start};
  std::unordered_set<std::int32_t> on_path{start};

  auto ranked_successors = [&](std::int32_t node) {
    std::vector<std::int32_t> succ;
    for (std::uint8_t b = 0; b < 4; ++b) {
      const std::int32_t s = graph.successor(node, b);
      if (s < 0 || on_path.count(s)) continue;
      // Read reconciliation: never walk into a node no read supports.
      if (options.min_node_support > 0 && graph.support(s) < options.min_node_support) {
        continue;
      }
      succ.push_back(s);
    }
    std::sort(succ.begin(), succ.end(), [&](std::int32_t a, std::int32_t c) {
      if (graph.support(a) != graph.support(c)) return graph.support(a) > graph.support(c);
      if (options.tie_break_seed != 0) {
        // Salted tie: models Trinity's run-to-run variation in path order.
        return mix_tie(a, options.tie_break_seed) < mix_tie(c, options.tie_break_seed);
      }
      return a < c;  // canonical deterministic tiebreak
    });
    // Reverse so pop_back() yields the best-supported successor first.
    std::reverse(succ.begin(), succ.end());
    return succ;
  };

  std::vector<Frame> stack;
  stack.push_back({start, ranked_successors(start)});
  // A path is emitted exactly when it becomes maximal: its tip has no
  // unexplored-in-path successors, or the length guard fires.
  if (stack.back().successors.empty() || path.size() >= options.max_path_nodes) {
    paths.push_back(path);
  }

  while (!stack.empty()) {
    if (paths.size() >= options.max_paths_per_component) return;
    Frame& top = stack.back();
    if (top.successors.empty() || path.size() >= options.max_path_nodes) {
      on_path.erase(top.node);
      path.pop_back();
      stack.pop_back();
      continue;
    }
    const std::int32_t next = top.successors.back();
    top.successors.pop_back();
    path.push_back(next);
    on_path.insert(next);
    stack.push_back({next, ranked_successors(next)});
    if (stack.back().successors.empty() || path.size() >= options.max_path_nodes) {
      paths.push_back(path);
    }
  }
}

/// Drops transcripts that are exact substrings of a longer sibling.
std::vector<std::string> drop_contained(std::vector<std::string> seqs) {
  std::sort(seqs.begin(), seqs.end(), [](const std::string& a, const std::string& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a < b;
  });
  std::vector<std::string> kept;
  for (const auto& s : seqs) {
    const bool contained = std::any_of(kept.begin(), kept.end(), [&](const std::string& t) {
      return t.find(s) != std::string::npos;
    });
    if (!contained) kept.push_back(s);
  }
  return kept;
}

}  // namespace

std::vector<seq::Sequence> reconstruct_component(const chrysalis::DeBruijnGraph& graph,
                                                 std::int32_t component_id,
                                                 const ButterflyOptions& options) {
  std::vector<seq::Sequence> out;
  if (graph.num_nodes() == 0) return out;

  auto starts = graph.source_nodes();
  if (starts.empty()) {
    // Fully cyclic graph: start from the best-supported node.
    std::int32_t best = 0;
    for (std::size_t i = 1; i < graph.num_nodes(); ++i) {
      if (graph.support(static_cast<std::int32_t>(i)) > graph.support(best)) {
        best = static_cast<std::int32_t>(i);
      }
    }
    starts.push_back(best);
  }

  std::vector<std::vector<std::int32_t>> paths;
  for (const auto start : starts) {
    if (paths.size() >= options.max_paths_per_component) break;
    enumerate_paths(graph, start, options, paths);
  }

  std::vector<std::string> seqs;
  seqs.reserve(paths.size());
  for (const auto& path : paths) seqs.push_back(path_to_sequence(graph, path));
  seqs = drop_contained(std::move(seqs));

  std::size_t isoform = 0;
  for (auto& s : seqs) {
    if (s.size() < options.min_transcript_length) continue;
    seq::Sequence rec;
    rec.name = "comp" + std::to_string(component_id) + "_seq" + std::to_string(isoform++);
    rec.bases = std::move(s);
    out.push_back(std::move(rec));
  }
  return out;
}

std::size_t paired_support(const seq::Sequence& transcript,
                           const std::vector<const seq::Sequence*>& component_reads) {
  // Group mates by fragment name, then check containment on both strands.
  std::unordered_map<std::string, std::pair<const seq::Sequence*, const seq::Sequence*>>
      fragments;
  for (const auto* read : component_reads) {
    int mate = 0;
    const std::string frag = chrysalis::mate_fragment_name(read->name, &mate);
    if (frag.empty()) continue;
    auto& slot = fragments[frag];
    (mate == 1 ? slot.first : slot.second) = read;
  }

  const std::string rc = seq::reverse_complement(transcript.bases);
  auto contains_fwd = [&](const seq::Sequence& r) {
    return transcript.bases.find(r.bases) != std::string::npos;
  };
  auto contains_rev = [&](const seq::Sequence& r) {
    return rc.find(r.bases) != std::string::npos;
  };

  std::size_t supported = 0;
  for (const auto& [frag, mates] : fragments) {
    if (mates.first == nullptr || mates.second == nullptr) continue;
    // A proper pair: the mates sit on opposite strands of the fragment.
    const bool orientation_a = contains_fwd(*mates.first) && contains_rev(*mates.second);
    const bool orientation_b = contains_rev(*mates.first) && contains_fwd(*mates.second);
    if (orientation_a || orientation_b) ++supported;
  }
  return supported;
}

std::vector<seq::Sequence> run_butterfly(
    const std::vector<seq::Sequence>& contigs, const chrysalis::ComponentSet& components,
    const std::vector<chrysalis::ReadAssignment>& assignments,
    const std::vector<seq::Sequence>& reads, const ButterflyOptions& options) {
  // Bucket assigned reads per component.
  const auto num_components = static_cast<std::int64_t>(components.num_components());
  std::vector<std::vector<const seq::Sequence*>> reads_of(components.num_components());
  for (const auto& a : assignments) {
    const bool known_read =
        a.read_index >= 0 && static_cast<std::size_t>(a.read_index) < reads.size();
    if (a.component < -1 || a.component >= num_components) {
      throw std::invalid_argument(
          "run_butterfly: read " + std::to_string(a.read_index) +
          (known_read ? " ('" + reads[static_cast<std::size_t>(a.read_index)].name + "')" : "") +
          " is assigned to component " + std::to_string(a.component) + ", outside [-1, " +
          std::to_string(num_components) + ")");
    }
    if (a.component < 0 || !known_read) continue;
    reads_of[static_cast<std::size_t>(a.component)].push_back(
        &reads[static_cast<std::size_t>(a.read_index)]);
  }

  std::vector<seq::Sequence> transcripts;
  for (const auto& comp : components.components) {
    std::vector<seq::Sequence> comp_contigs;
    comp_contigs.reserve(comp.contig_ids.size());
    for (const auto id : comp.contig_ids) {
      comp_contigs.push_back(contigs.at(static_cast<std::size_t>(id)));
    }
    chrysalis::DeBruijnGraph graph(comp_contigs, options.k);
    const auto& comp_reads = reads_of.at(static_cast<std::size_t>(comp.id));
    for (const auto* read : comp_reads) graph.quantify(*read);
    auto comp_transcripts = reconstruct_component(graph, comp.id, options);
    if (options.require_paired_support) {
      std::erase_if(comp_transcripts, [&](const seq::Sequence& t) {
        if (t.bases.size() <= options.paired_check_length) return false;
        return paired_support(t, comp_reads) == 0;
      });
    }
    transcripts.insert(transcripts.end(), std::make_move_iterator(comp_transcripts.begin()),
                       std::make_move_iterator(comp_transcripts.end()));
  }
  return transcripts;
}

}  // namespace trinity::butterfly
