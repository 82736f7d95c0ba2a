#pragma once
// File interchange for Chrysalis results.
//
// Trinity is "a modular platform ... The software modules exchange data
// through files; the files being output from one software module are then
// consumed by the following module" (paper, Section II.A). These routines
// give ComponentSet and ReadAssignment that property, so the stages can be
// run as separate processes exactly like Trinity's executables (see the
// trinity_stages example).

#include <string>
#include <vector>

#include "chrysalis/components.hpp"
#include "chrysalis/reads_to_transcripts.hpp"

namespace trinity::chrysalis {

/// Writes a ComponentSet as text:
///   #trinity-components <num_components> <num_contigs>
///   <component_id>: <contig_id> <contig_id> ...
/// through io::BufferedWriter (failures are typed io::IoErrors).
void write_components(const std::string& path, const ComponentSet& components);

/// Reads a ComponentSet written by write_components. Validates the header,
/// membership consistency, and contig-id bounds; throws std::runtime_error
/// on malformed input.
ComponentSet read_components(const std::string& path);

/// Reads assignments written by detail::write_assignments (the
/// readsToComponents.out.tsv format). Throws std::runtime_error on
/// malformed rows.
std::vector<ReadAssignment> read_assignments(const std::string& path);

}  // namespace trinity::chrysalis
