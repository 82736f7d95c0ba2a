#pragma once
// RunManifest: the checkpoint record of a pipeline run.
//
// Long hybrid Chrysalis runs are multi-stage jobs where a single rank
// failure used to abort the whole simpi world and discard every completed
// stage. Trinity's stages already exchange their results through files in
// the work directory, so those artifacts are the natural checkpoint
// boundary (the same observation extreme-scale assemblers build on). The
// manifest records, per stage: the options fingerprint the stage ran
// under, the input and output artifacts with content hashes, and
// completion status — one JSON object per line, committed atomically by
// writing a temporary file and renaming it over the manifest path. Lines
// are built and read through util::Json, the codec the run report and
// --config files use; hashes and fingerprints are 16-digit hex strings.
//
// Loading is deliberately tolerant: a truncated or corrupt line (the
// signature of a crash mid-write on a filesystem without atomic rename)
// drops that record, which simply forces the affected stage to re-run.
// Validation failures are reported as a StageCheck reason, never an
// exception, so a damaged manifest can only cost recomputation.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace trinity::checkpoint {

/// One stage input or output file, identified by its work-dir-relative
/// path plus size and content hash.
struct ArtifactRecord {
  std::string path;          ///< relative to the work directory
  std::uint64_t bytes = 0;   ///< file size when recorded
  std::uint64_t hash = 0;    ///< util::hash_file of the file contents
  friend bool operator==(const ArtifactRecord&, const ArtifactRecord&) = default;
};

/// One completed (or attempted) pipeline stage.
struct StageRecord {
  std::string stage;                    ///< stage name, e.g. "chrysalis.bowtie"
  std::uint64_t fingerprint = 0;        ///< options fingerprint of the run
  bool complete = false;                ///< stage finished and outputs committed
  int attempt = 1;                      ///< attempt number that succeeded
  double wall_seconds = 0.0;            ///< stage execution wall time
  double checkpoint_seconds = 0.0;      ///< hashing the outputs (not the manifest commit)
  /// Work-dir-relative path of the run report carrying this stage's
  /// observability metrics (docs/OBSERVABILITY.md). Optional: empty when
  /// the run emitted no report, and omitted from the JSON line then, so
  /// manifests written before the field existed parse unchanged.
  std::string trace;
  std::vector<ArtifactRecord> inputs;   ///< artifacts the stage consumed
  std::vector<ArtifactRecord> outputs;  ///< artifacts the stage produced
};

/// Serializes one stage record as a single JSON line (no trailing newline).
[[nodiscard]] std::string to_json_line(const StageRecord& record);

/// Parses one manifest line; std::nullopt on any malformed input
/// (truncation, bad escape, trailing garbage, a missing `stage` or
/// `fingerprint`, an unknown key, or a hash that is not hex).
[[nodiscard]] std::optional<StageRecord> parse_json_line(const std::string& line);

/// The ordered collection of stage records, persisted as JSON lines.
class RunManifest {
 public:
  RunManifest() = default;
  explicit RunManifest(std::string path) : path_(std::move(path)) {}

  /// Reads the manifest at `path`. A missing file yields an empty
  /// manifest; corrupt lines are dropped (counted in dropped_lines()).
  static RunManifest load(const std::string& path);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::vector<StageRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t dropped_lines() const { return dropped_lines_; }

  /// The record for `stage`, or nullptr when absent.
  [[nodiscard]] const StageRecord* find(const std::string& stage) const;

  /// Inserts or replaces the record for record.stage, keeping insertion
  /// order for new stages.
  void upsert(StageRecord record);

  /// Atomically persists all records: writes `path + ".tmp"`, then renames
  /// it over `path`. Throws std::runtime_error when the directory is not
  /// writable.
  void commit() const;

 private:
  std::string path_;
  std::vector<StageRecord> records_;
  std::size_t dropped_lines_ = 0;
};

/// Why a recorded stage can (or cannot) be resumed.
enum class StageCheck {
  kValid,                ///< record matches fingerprint and on-disk artifacts
  kNoRecord,             ///< stage absent from the manifest
  kIncomplete,           ///< recorded but never marked complete
  kFingerprintMismatch,  ///< options changed since the record was written
  kArtifactMissing,      ///< an input/output file disappeared
  kArtifactModified,     ///< an input/output file's size or hash changed
};

[[nodiscard]] const char* to_string(StageCheck check);

/// Stats + hashes one artifact. Throws std::runtime_error when the file
/// cannot be read (recording requires the artifact to exist).
[[nodiscard]] ArtifactRecord capture_artifact(const std::string& work_dir,
                                              const std::string& rel_path);

/// The artifacts a run has hashed, by path: outputs it captured or
/// validated. Stage inputs are earlier outputs, so each is hashed once.
using ArtifactTable = std::unordered_map<std::string, ArtifactRecord>;

/// Validates a recorded stage against the current options fingerprint, the
/// run's table (each recorded input must equal its producer's current
/// output there) and the outputs on disk, the only files it reads. Never
/// throws: unreadable or altered files map to the StageCheck reason.
[[nodiscard]] StageCheck validate_stage(const StageRecord& record,
                                        const std::string& work_dir,
                                        std::uint64_t fingerprint,
                                        const ArtifactTable& hashed);

}  // namespace trinity::checkpoint
