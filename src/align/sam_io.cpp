#include "align/sam_io.hpp"

#include <sstream>
#include <unordered_map>

#include "io/io_file.hpp"

namespace trinity::align {

SamFile read_sam(const std::string& path) {
  io::LineCursor cursor(path, "read_sam");

  SamFile out;
  std::unordered_map<std::string, std::int32_t> ref_ids;
  std::unordered_map<std::string, std::size_t> ref_lengths;

  while (cursor.next()) {
    const std::string& line = cursor.line();
    if (line.empty()) continue;
    if (line[0] == '@') {
      if (line.rfind("@SQ", 0) == 0) {
        // Tab-separated tags: SN:<name> LN:<length>.
        std::istringstream row(line);
        std::string field;
        std::string name;
        std::size_t length = 0;
        while (std::getline(row, field, '\t')) {
          if (field.rfind("SN:", 0) == 0) name = field.substr(3);
          if (field.rfind("LN:", 0) == 0) {
            length = cursor.number<std::size_t>(std::string_view(field).substr(3), "LN");
          }
        }
        if (name.empty()) cursor.fail(io::ParseCategory::kMissingHeader, "@SQ without SN");
        ref_ids.emplace(name, static_cast<std::int32_t>(out.references.size()));
        ref_lengths.emplace(name, length);
        out.references.push_back({name, ""});
      }
      continue;
    }

    std::istringstream row(line);
    SamRecord rec;
    std::string flag_text, rname, pos_text, mapq, cigar;
    if (!(row >> rec.read_name >> flag_text >> rname >> pos_text >> mapq >> cigar)) {
      cursor.fail(io::ParseCategory::kTruncatedRecord,
                  "expected QNAME FLAG RNAME POS MAPQ CIGAR");
    }
    const int flag = cursor.number<int>(flag_text, "FLAG");
    const auto pos1 = cursor.number<std::size_t>(pos_text, "POS");  // SAM is 1-based
    if ((flag & 0x4) != 0 || rname == "*") {
      out.records.push_back(std::move(rec));  // unmapped
      continue;
    }
    const auto it = ref_ids.find(rname);
    if (it == ref_ids.end()) {
      cursor.fail(io::ParseCategory::kInvalidCharacter, "unknown reference '" + rname + "'");
    }
    if (pos1 == 0) {
      cursor.fail(io::ParseCategory::kInvalidCharacter, "mapped record at POS 0 (SAM is 1-based)");
    }
    rec.target_id = it->second;
    rec.target_name = rname;
    rec.pos = pos1 - 1;
    rec.reverse_strand = (flag & 0x10) != 0;
    // Our writer emits "<len>M" cigars; recover the read length from it.
    if (!cigar.empty() && cigar.back() == 'M') {
      rec.read_length = cursor.number<std::size_t>(
          std::string_view(cigar).substr(0, cigar.size() - 1), "CIGAR length");
    }
    const std::size_t ref_len = ref_lengths.at(rname);
    if (ref_len > 0 && (rec.read_length > ref_len || rec.pos > ref_len - rec.read_length)) {
      cursor.fail(io::ParseCategory::kInvalidCharacter, "alignment beyond reference end");
    }
    // Optional NM:i:<n> tag carries the mismatch count.
    std::string tag;
    while (row >> tag) {
      if (tag.rfind("NM:i:", 0) == 0) {
        rec.mismatches = cursor.number<int>(std::string_view(tag).substr(5), "NM");
      }
    }
    out.records.push_back(std::move(rec));
  }
  return out;
}

}  // namespace trinity::align
