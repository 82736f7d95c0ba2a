#!/bin/sh
# check.sh — the repo's verification gate.
#
#   1. Docs gate: local markdown links in README.md, EXPERIMENTS.md and
#      docs/ must resolve,
#      and the "Schema version" stated in docs/OBSERVABILITY.md must match
#      kReportSchemaVersion in src/pipeline/run_report.hpp (the emitted
#      report's version is asserted against the same constant by
#      run_report_test in step 2). The gate also prints the src/ line
#      count (*.cpp + *.hpp), the size bookkeeping ROADMAP item 4 asks
#      every subtraction PR to report.
#   2. Tier-1 verify (ROADMAP.md): full build + complete ctest suite.
#   3. Fault-matrix gate (docs/ROBUSTNESS.md): the injected-storage-failure
#      matrix — ENOSPC and a torn rename at the manifest commit recovering
#      via resume to byte-identical transcripts, EIO mid-dump, EIO on
#      bowtie.sam, components.txt and readsToComponents.out.tsv, and a short
#      write on the final transcripts retried in process — plus the io-layer
#      unit tests, the malformed-input corpus, and a probe that
#      trinity_stages butterfly over an assignments file naming an
#      out-of-range component exits 1 with the typed message (it used to
#      die on SIGSEGV).
#   4. Trace gate (docs/OBSERVABILITY.md "Distributed trace"): a small
#      traced pipeline run must leave a trace.json that passes the Chrome
#      trace-event shape checker and yields a critical-path analysis, and
#      the disabled-tracing overhead bench must stay under its 2% budget.
#   5. Config gate (docs/CONFIG.md): the unified-parsing unit suite verbatim
#      (round-trip through to_json included), a real binary exercising
#      --config preload with a CLI override, the removed --nprocs spelling
#      and a malformed value each failing with the typed "config error"
#      shape.
#   6. K-mer index gate: bench_kmer_index must show the flat open-addressing
#      index no slower than std::unordered_map on the Figure 7 workload
#      shape (--min-speedup 1.0, identical entries/checksum enforced by the
#      bench itself), and the partition-then-build KmerCounter at least
#      1.5x faster than the lock-striped counter it replaced on count +
#      dump at 4 threads (--min-count-speedup 1.5, identical sorted dumps
#      enforced by the bench), and KmerCodec::for_each's two-strand rolling
#      walk at least 2x faster than the materialising extract() + k-step
#      reverse complement it replaced on one canonical pass over the reads
#      (--min-walk-speedup 2.0, equal window counts and checksums enforced
#      by the bench), recording the run in BENCH_kmer_index.json.
#   7. GFF sharding gate (docs/CONFIG.md --gff-sharding): bench_gff_shard
#      must show owner-computes producing byte-identical components to the
#      pooled path at 1/2/4/8 ranks while cutting total communication
#      payload by at least --min-bytes-reduction at >= 4 ranks, recording
#      the run in BENCH_gff_shard.json.
#   8. Smith–Waterman gate (ROADMAP item 2): bench_sw must show the
#      library's Section-IV validation (score both strands in linear memory,
#      AVX2 where available, trace back only where a category reads it) at
#      least 5x faster than the scalar full-traceback baseline on the
#      Figure 4-6 presets, with identical CategoryCounts and
#      ReferenceComparison (enforced by the bench itself), recording the run
#      in BENCH_sw.json.
#   9. Checkpoint hashing gate (docs/OBSERVABILITY.md checkpoint_bytes):
#      on a fresh checkpointed run, bench_checkpoint_overhead must find the
#      summed checkpoint_bytes phase counters equal to the distinct
#      artifact bytes (each artifact hashed once, enforced by the bench
#      itself), and the run's hashing at least 5x faster than byte-serial
#      FNV-1a over every manifest record's inputs and outputs, the scheme
#      it replaced (--min-hash-speedup 5).
#  10. Memory gate (ROADMAP item 3): sugarbeet_like at its own 400 genes is
#      assembled by assemble_fasta at 1 and at 4 ranks, each in a fresh
#      process; the largest phase rss_peak_b in each run_report.json must
#      stay within 1.3x (1 rank) and 1.9x (4 ranks) of the jellyfish
#      phase's. Every later stage's table is then sized to what it reads
#      and each stage's data is gone once its last reader is done; the
#      tables sized to total bases failed both bounds (1.55x / 2.93x).
#  11. Kill-and-resume gate (docs/ROBUSTNESS.md): assemble_fasta runs step
#      10's reads at 1 rank and is SIGKILLed as soon as run_manifest.jsonl
#      holds the committed jellyfish record. The process must have died by
#      the signal (exit status 137; a run that finished first fails the
#      gate). A --resume re-launch must report jellyfish in stages_resumed
#      and write a Trinity.fa byte-identical to step 10's never-killed
#      1-rank run.
#  12. Warning gate: every trinity_* library target under src/, every bench
#      and every example builds with -Werror in a Release build dir of its
#      own (build-werror/), where GCC's -O3 flow warnings
#      (-Wstringop-overflow, -Wrestrict) fire. Tests are not built here:
#      GCC 12's -O3 -Wrestrict false positive on `const char* +
#      std::string&&` (inside char_traits.h) fires in ten test files.
#  13. ASan+UBSan build (-DTRINITY_SANITIZE=ON) running the checkpoint, io,
#      sequence (FASTA/FASTQ reader and parse policies), simpi (CommStats
#      included), trace, config, util (the JSON parser's depth cap),
#      flat-index, k-mer (counter, Inchworm, de Bruijn, aligner), stage-file loader
#      (components, Butterfly), GraphFromFasta and ReadsToTranscripts
#      (hybrid drivers over simpi ranks and OpenMP threads; the dynamic
#      distribution's RMA claims and the read-split Bowtie in the
#      extensions binary; the distribution arithmetic) and
#      Smith–Waterman/validation test binaries — the
#      subsystems that throw across thread and collective boundaries (and,
#      for the trace recorder, publish buffers across threads; for the flat
#      index, raw-storage placement news; for the k-mer counter, OpenMP
#      threads filling per-partition buffers; for the JSON parser, a
#      recursive descent over hostile nesting; for the SW kernels,
#      unaligned AVX2 loads and stores past each anti-diagonal's last row;
#      for the stage-file loaders, corrupt headers and ids that used to
#      index out of bounds; for the FASTA reader, pointer arithmetic over
#      its raw block buffer), where sanitizers earn their keep.
#  14. ThreadSanitizer build (build-tsan/, -fsanitize=thread) running the
#      simpi (collectives, fault injection, CommStats, extensions), union-
#      find and trace test binaries — rank threads exchanging through
#      mailboxes and RMA windows, and the span recorder's per-thread
#      buffers — with OMP_NUM_THREADS=1 (libgomp is not instrumented, so
#      OpenMP code stays out of scope) and TSAN_OPTIONS=halt_on_error=1: any
#      data-race report fails the gate.
#
# Usage: scripts/check.sh [--skip-sanitize]  (skips steps 13 and 14)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

jobs=$(nproc 2>/dev/null || echo 4)

echo "== docs: links + schema version =="
docs_failed=0
for doc in README.md EXPERIMENTS.md docs/*.md; do
    [ -f "$doc" ] || continue
    doc_dir=$(dirname -- "$doc")
    # Markdown links to local files: [text](target). URLs and anchors pass.
    for target in $(grep -o ']([^)#][^)]*)' "$doc" | sed 's/^](//; s/)$//'); do
        case $target in
            http://*|https://*|mailto:*) continue ;;
        esac
        # Relative to the doc's directory first, then the repo root.
        if [ ! -e "$doc_dir/$target" ] && [ ! -e "$target" ]; then
            echo "dead link in $doc: $target" >&2
            docs_failed=1
        fi
    done
done
header_version=$(sed -n 's/.*kReportSchemaVersion = \([0-9][0-9]*\);.*/\1/p' \
    src/pipeline/run_report.hpp)
docs_version=$(sed -n 's/^Schema version: \([0-9][0-9]*\)$/\1/p' docs/OBSERVABILITY.md)
if [ -z "$header_version" ] || [ -z "$docs_version" ]; then
    echo "could not extract schema version (header: '$header_version'," \
         "docs: '$docs_version')" >&2
    docs_failed=1
elif [ "$header_version" != "$docs_version" ]; then
    echo "schema version mismatch: run_report.hpp says $header_version," \
         "docs/OBSERVABILITY.md says $docs_version" >&2
    docs_failed=1
fi
[ "$docs_failed" -eq 0 ] || exit 1
echo "docs ok (schema version $header_version)"
src_lines=$(find src \( -name '*.cpp' -o -name '*.hpp' \) -exec cat {} + | wc -l)
echo "src/ size: $src_lines lines (*.cpp + *.hpp)"

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

echo "== fault matrix: injected storage failures + malformed input =="
# Already run as part of ctest above; run the binaries verbatim as a
# dedicated gate so a failure here names the robustness contract directly
# (and so the gate still bites if the suite registration ever regresses).
./build/tests/io_fault_test
./build/tests/seq_parse_policy_test
./build/tests/io_fault_matrix_test
probe_dir=/tmp/trinity_check_stage_probe
rm -rf "$probe_dir"
mkdir -p "$probe_dir/chrysalis"
printf '>c0\nACGTACGTTAGCATCGATCGATCGGATCGATTACGATCGATCGAT\n' > "$probe_dir/contigs.fa"
printf '>r0\nACGTACGTTAGCATCGATCGATCGG\n' > "$probe_dir/reads.fa"
printf '#trinity-components 1 1\n0: 0\n' > "$probe_dir/chrysalis/components.txt"
printf '0\t50000000\t3\t0\t25\n' > "$probe_dir/chrysalis/readsToComponents.out.tsv"
probe_status=0
./build/examples/trinity_stages butterfly "$probe_dir/contigs.fa" "$probe_dir/chrysalis" \
    "$probe_dir/reads.fa" --out "$probe_dir/Trinity.fa" >/dev/null 2>"$probe_dir/err" ||
    probe_status=$?
if [ "$probe_status" -ne 1 ] ||
    ! grep -q "read 0 ('r0') is assigned to component 50000000, outside \[-1, 1)" \
        "$probe_dir/err"; then
    echo "corrupt assignments: expected exit 1 with the typed message, got" \
         "$probe_status: $(cat "$probe_dir/err")" >&2
    exit 1
fi

echo "== trace: traced run + shape check + overhead budget =="
trace_dir=/tmp/trinity_check_trace
rm -rf "$trace_dir"
./build/examples/quickstart --genes 8 --ranks 2 --trace --work-dir "$trace_dir" >/dev/null
./build/examples/trinity_trace "$trace_dir/trace.json" --validate
./build/examples/trinity_trace "$trace_dir/trace.json" | grep -q 'critical path'
./build/examples/trinity_report "$trace_dir/run_report.json" --trace | grep -q 'top spans'
./build/bench/bench_trace_overhead --genes 60 --kernel-repeats 5 --iters 5000000

echo "== config: unified flag parsing (docs/CONFIG.md) =="
# The unit suite verbatim (includes the to_json round-trip), then a real
# binary: --config preload with a CLI flag overriding it.
./build/tests/config_test
cfg_dir=/tmp/trinity_check_config
rm -rf "$cfg_dir"
mkdir -p "$cfg_dir"
printf '{"genes": 6, "ranks": 4, "trace_sample_interval_ms": 0}\n' \
    > "$cfg_dir/cfg.json"
./build/examples/quickstart --config "$cfg_dir/cfg.json" --ranks 2 \
    --work-dir "$cfg_dir/run" >/dev/null
grep -q '"nranks": 2,' "$cfg_dir/run/run_report.json"
# The old --nprocs spelling is gone: an unknown option, typed like any other.
if ./build/examples/quickstart --nprocs 2 >/dev/null 2>"$cfg_dir/err"; then
    echo "expected 'quickstart --nprocs 2' to fail" >&2
    exit 1
fi
grep -q "config error: --nprocs: unknown option" "$cfg_dir/err"
# Malformed values must fail with the typed error shape, not a crash.
if ./build/examples/quickstart --ranks banana >/dev/null 2>"$cfg_dir/err"; then
    echo "expected 'quickstart --ranks banana' to fail" >&2
    exit 1
fi
grep -q "config error: --ranks: expected an integer, got 'banana'" "$cfg_dir/err"
echo "config ok"

echo "== k-mer index: flat index vs unordered_map, partitioned vs striped counting, rolling walk (BENCH_kmer_index.json) =="
./build/bench/bench_kmer_index --genes 200 --repeats 3 --min-speedup 1.0 \
    --threads 4 --min-count-speedup 1.5 --min-walk-speedup 2.0 \
    --json "$repo_root/BENCH_kmer_index.json"

echo "== gff sharding: owner-computes vs pooled (BENCH_gff_shard.json) =="
./build/bench/bench_gff_shard --genes 120 --kernel-repeats 10 --trials 1 \
    --min-bytes-reduction 1.5 --json "$repo_root/BENCH_gff_shard.json"

echo "== smith-waterman: validation path vs scalar baseline (BENCH_sw.json) =="
./build/bench/bench_sw --genes 60 --repeats 1 --min-speedup 5.0 \
    --json "$repo_root/BENCH_sw.json"

echo "== checkpoint hashing: each artifact once, vs FNV-1a per record =="
./build/bench/bench_checkpoint_overhead --genes 120 --min-hash-speedup 5

echo "== memory: largest stage peak vs the jellyfish phase, 1 and 4 ranks =="
# Figure 2's bench leaves the sugarbeet_like reads in its work dir
# (calibration repeats off: only the file is used here).
mem_dir=/tmp/trinity_check_memory
rm -rf "$mem_dir"
./build/bench/bench_fig02_baseline_trace --genes 400 --bowtie-repeats 1 \
    --gff-repeats 1 --r2t-repeats 1 >/dev/null
for ranks in 1 4; do
    ./build/examples/assemble_fasta /tmp/trinity_bench_fig02/reads.fa --ranks "$ranks" \
        --work-dir "$mem_dir/r$ranks" --out "$mem_dir/r$ranks.fa" >/dev/null
done
python3 - "$mem_dir" <<'PY'
import json
import sys

failed = False
for ranks, bound in ((1, 1.3), (4, 1.9)):
    with open(f"{sys.argv[1]}/r{ranks}/run_report.json") as f:
        peak = {p["name"]: p["rss_peak_b"] for p in json.load(f)["phases"]}
    top = max(peak, key=peak.get)
    ratio = peak[top] / peak["jellyfish"]
    print(f"{ranks} rank(s): {top} peaks at {peak[top] / 2**20:.0f} MB, "
          f"{ratio:.2f}x jellyfish's {peak['jellyfish'] / 2**20:.0f} MB (bound {bound}x)")
    failed = failed or ratio > bound
sys.exit(1 if failed else 0)
PY

echo "== kill and resume: SIGKILL a 1-rank run after jellyfish, resume byte-identically =="
kill_dir=/tmp/trinity_check_kill_resume
rm -rf "$kill_dir"
mkdir -p "$kill_dir"
./build/examples/assemble_fasta /tmp/trinity_bench_fig02/reads.fa --ranks 1 \
    --work-dir "$kill_dir/wd" --out "$kill_dir/first.fa" >"$kill_dir/first.log" 2>&1 &
kill_pid=$!
# The manifest is replaced by an atomic rename per committed stage, so a
# match is a complete jellyfish record. Stop polling if the run exits.
while kill -0 "$kill_pid" 2>/dev/null &&
    ! grep -q '"stage":"jellyfish"' "$kill_dir/wd/run_manifest.jsonl" 2>/dev/null; do
    sleep 0.01
done
kill -9 "$kill_pid" 2>/dev/null || true
kill_status=0
wait "$kill_pid" || kill_status=$?
if [ "$kill_status" -ne 137 ]; then
    echo "kill and resume: expected the first run to die by SIGKILL (status 137), got" \
         "$kill_status: $(tail -n 3 "$kill_dir/first.log")" >&2
    exit 1
fi
./build/examples/assemble_fasta /tmp/trinity_bench_fig02/reads.fa --ranks 1 \
    --work-dir "$kill_dir/wd" --out "$kill_dir/resumed.fa" --resume >/dev/null
python3 - "$kill_dir/wd/run_report.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    resumed = json.load(f)["stages_resumed"]
print(f"resumed stages: {', '.join(resumed)}")
sys.exit(0 if "jellyfish" in resumed else 1)
PY
cmp "$mem_dir/r1/Trinity.fa" "$kill_dir/wd/Trinity.fa"
echo "kill and resume ok"

echo "== warnings: src/ libraries, benches and examples build with -Werror (Release, build-werror/) =="
libs=$(sed -n 's/^add_library(\(trinity_[a-z_]*\).*/\1/p' src/*/CMakeLists.txt)
bins=$(sed -n 's/^trinity_add_\(bench\|example\)(\([a-z0-9_]*\).*/\2/p
               s/^add_executable(\([a-z0-9_]*\).*/\1/p' bench/CMakeLists.txt examples/CMakeLists.txt)
cmake -B build-werror -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror >/dev/null
# shellcheck disable=SC2086 # one target name per word
cmake --build build-werror -j "$jobs" --target $libs $bins
echo "src/ libraries, benches and examples are warning-free" \
     "($(echo "$libs" | wc -l) libraries, $(echo "$bins" | wc -l) binaries)"

if [ "${1:-}" = "--skip-sanitize" ]; then
    echo "== sanitizer pass skipped =="
    exit 0
fi

echo "== ASan+UBSan: checkpoint + io + seq + simpi + trace + config + util + flat index + k-mer + sw + stage-file + chrysalis tests =="
cmake -B build-asan -S . -DTRINITY_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$jobs" --target \
    checkpoint_test simpi_fault_test simpi_test simpi_extensions_test dsu_test \
    pipeline_checkpoint_test io_fault_test seq_test seq_parse_policy_test trace_test \
    config_test util_test flat_index_test kmer_test inchworm_test debruijn_test align_test \
    sw_test sw_kernel_test validate_test components_io_test butterfly_test \
    chrysalis_gff_test chrysalis_r2t_test chrysalis_extensions_test \
    chrysalis_distribution_test simpi_comm_stats_test
for t in checkpoint_test simpi_fault_test simpi_test simpi_extensions_test dsu_test \
         pipeline_checkpoint_test io_fault_test seq_test seq_parse_policy_test trace_test \
         config_test util_test flat_index_test kmer_test inchworm_test debruijn_test \
         align_test sw_test sw_kernel_test validate_test components_io_test butterfly_test \
         chrysalis_gff_test chrysalis_r2t_test chrysalis_extensions_test \
         chrysalis_distribution_test simpi_comm_stats_test; do
    echo "-- $t (ASan+UBSan)"
    ./build-asan/tests/"$t"
done

echo "== TSan: simpi + dsu + trace tests =="
tsan_tests="simpi_test simpi_fault_test simpi_comm_stats_test simpi_extensions_test \
    dsu_test trace_test"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-fsanitize=thread -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
# shellcheck disable=SC2086 # one target name per word
cmake --build build-tsan -j "$jobs" --target $tsan_tests
for t in $tsan_tests; do
    echo "-- $t (TSan)"
    OMP_NUM_THREADS=1 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/"$t"
done

echo "== all checks passed =="
