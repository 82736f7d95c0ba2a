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

/// Reads a ComponentSet written by write_components. Throws io::ParseError
/// (path, line, byte offset): kMissingHeader for a bad header line;
/// kTruncatedRecord when the header's counts exceed what the file size can
/// hold (checked before allocating) or the file ends before every
/// component and contig is listed; kInvalidCharacter for a non-numeric
/// field, a row j whose id is not j, or a contig id that is out of range
/// or repeated.
ComponentSet read_components(const std::string& path);

/// Reads assignments written by detail::write_assignments (the
/// readsToComponents.out.tsv format). Throws io::ParseError
/// (kInvalidCharacter, with path, line and byte offset) on a row that is
/// not five decimal fields.
std::vector<ReadAssignment> read_assignments(const std::string& path);

}  // namespace trinity::chrysalis
