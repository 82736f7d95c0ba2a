#!/usr/bin/env python3
"""End-to-end benchmark of the Trinity reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload assemble_serial --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):
  assemble_serial  sugarbeet_like reads; timed: run_pipeline at 1 rank
  assemble_hybrid  the same reads; timed: run_pipeline at 4 ranks, one
                   OpenMP thread per rank
  validate         whitefly_like reads; set-up assembles a 1-rank
                   "original" and a 4-rank "parallel" run; timed: the
                   Section-IV comparisons of the parallel run against the
                   reference and against the original

The first run builds trinity_perfbench (perfbench/CMakeLists.txt) from the
sources in src/ into .bench_build/. Set-up is repeated SETUP_REPS times; the
timed part repeats its trinity_perfbench call, in a fresh work directory each time,
until --seconds have passed. Every output is checked (perfbench/check.py).
The last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced stage sequence with
--trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402

BUILD_TYPE = "Release"
SETUP_REPS = 3
RUN_BUDGET_S = 170  # set-up plus timed part, after the build
BUILD_TIMEOUT_S = 850

# "assemble": the run_pipeline call each timed iteration makes; --seed
# draws the reads. `validate` assembles its "original" and "parallel" runs
# in set-up and times the Section-IV comparison of the two. Like the
# paper's repeated runs over one dataset, it always assembles the preset's
# own reads (seed 0), and --seed picks the pair of runs: run_seed 2*seed
# for the original and 2*seed + 1 for the parallel run. The Smith-Waterman
# work then follows the program, not the size of the longest transcripts
# a simulation happened to draw.
WORKLOADS = {
    "assemble_serial": {"preset": "sugarbeet_like", "assemble": {"nranks": 1, "run_seed": 0}},
    "assemble_hybrid": {"preset": "sugarbeet_like", "assemble": {"nranks": 4, "run_seed": 0}},
    "validate": {"preset": "whitefly_like", "reads_seed": 0,
                 "original": {"nranks": 1, "run_seed": 0},
                 "parallel": {"nranks": 4, "run_seed": 1}},
}

# The validation is single-threaded. Its CPU time on a partly idle shared
# host swings by up to 30% with what the neighbouring hyperthreads and the
# clock do; with one copy on each core (up to 4) the host's state is the
# same for every run, and the median copy is steady.
VALIDATE_COPIES = min(4, os.cpu_count() or 1)

SECTION_IV = ("full_length_genes", "full_length_isoforms", "fused_transcripts",
              "fig4_identical")
# Per-layer metrics only the `trinity_perfbench validate` command reports.
VALIDATION_LAYER = ("validate.reference_s", "validate.all_to_all_s", "validate.queries")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def bench_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def run_children(cmds, stdout_paths, timeout_s):
    """Runs the commands concurrently, each in its own process group.

    Returns [(exit code, resource usage)] in command order. Every group is
    killed on timeout or on any error, and every child is reaped before
    this returns.
    """
    procs, outcomes = [], {}
    lock = threading.Lock()

    def kill_all():
        with lock:
            for proc in procs:
                if proc.pid not in outcomes:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

    timer = threading.Timer(timeout_s, kill_all)
    timer.start()
    try:
        for cmd, path in zip(cmds, stdout_paths):
            with open(path, "wb") as out:
                procs.append(subprocess.Popen(cmd, stdout=out, cwd=ROOT, start_new_session=True))
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            with lock:
                outcomes[proc.pid] = (proc.returncode, usage)
    except BaseException:
        kill_all()
        for proc in procs:
            if proc.pid not in outcomes:
                os.waitpid(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
    return [outcomes[proc.pid] for proc in procs]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no Trinity sources in src/ next to perfbench/")
    build_dir = os.path.join(bench_root(), "perfbench-" + BUILD_TYPE.lower())
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "build.log")
    # Configuring every time costs a second and picks up changed build files.
    steps = [["cmake", "-S", HERE, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", build_dir, "--target", "trinity_perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        [(code, _)] = run_children([step], [logfile], BUILD_TIMEOUT_S)
        if code != 0:
            with open(logfile, errors="replace") as f:
                sys.stderr.write(f.read()[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "trinity_perfbench"), build_dir


def host_info(build_dir):
    info = {"nproc": os.cpu_count(), "build_type": BUILD_TYPE}
    llc_level, llc_size = 0, None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(cache_dir, entry, "size")) as f:
                size = f.read().strip()
        except (OSError, ValueError):
            continue
        if level >= llc_level:
            llc_level, llc_size = level, size
    info["llc"] = llc_size
    compiler = None
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
        if compiler:
            out = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=30)
            compiler = out.stdout.splitlines()[0] if out.stdout else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    info["compiler"] = compiler
    return info


class Runner:
    def __init__(self, program, work):
        self.program = program
        self.work = work
        self.calls = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def call(self, args, copies=1):
        """Runs `copies` concurrent processes of one trinity_perfbench command.

        Returns, per copy, (parsed JSON line or None on failure, peak RSS in
        MB, CPU seconds of the process); a single tuple when copies == 1.
        """
        outs = []
        for _ in range(copies):
            self.calls += 1
            outs.append(os.path.join(self.work, f"call{self.calls}.out"))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of the {RUN_BUDGET_S} s run budget")
        finished = run_children([[self.program] + args] * copies, outs, remaining)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"out of the {RUN_BUDGET_S} s run budget")
        results = []
        for out, (code, usage) in zip(outs, finished):
            result = None
            if code == 0:
                with open(out) as f:
                    result = json.loads(f.read().strip().splitlines()[-1])
            results.append((result, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime))
        return results[0] if copies == 1 else results


def assemble(runner, reads, work, config, floor, trace, keep_as=None):
    """One `assemble` call in a fresh `work`, with its output checked.

    Returns (result or None, peak RSS MB, CPU s, Trinity.fa digest, problems).
    `keep_as` receives a copy of Trinity.fa before `work` is removed.
    """
    args = ["assemble", "--reads", reads, "--work", work,
            "--nranks", str(config["nranks"]), "--run-seed", str(config["run_seed"])]
    if trace:
        args.append("--trace")
    result, rss_mb, cpu_s = runner.call(args)
    digest, problems = None, []
    if result is None:
        problems.append(f"run_pipeline at {config['nranks']} rank(s) failed")
    else:
        summary, problems = check.transcripts_summary(result["trinity_fa"])
        if summary is not None:
            digest = summary["sha256"]
            problems += check.check_assembly(summary, result, floor)
            if trace and check.sha256_file(result["traced_trinity_fa"]) != digest:
                problems.append("the traced stage sequence wrote another Trinity.fa")
            if keep_as is not None:
                shutil.copyfile(result["trinity_fa"], keep_as)
    shutil.rmtree(work, ignore_errors=True)
    return result, rss_mb, cpu_s, digest, problems


def setup(runner, spec, seed, work, floor, trace, problems):
    """Simulates the reads, and in `validate` assembles the original and the
    parallel run, SETUP_REPS times; every repetition must give the same files.
    """
    inputs = os.path.join(work, "input")
    reads = os.path.join(inputs, "reads.fa")
    out = {"reads": reads, "inputs": inputs, "cpu": [], "wall": [], "rss": [], "simulate_s": []}
    roles = [role for role in ("original", "parallel") if role in spec]
    digests = {name: set() for name in ["reads.fa"] + roles}
    for rep in range(SETUP_REPS):
        start = time.monotonic()
        sim, rss_mb, cpu = runner.call(["simulate", "--preset", spec["preset"],
                                        "--seed", str(spec.get("reads_seed", seed)),
                                        "--out", inputs])
        if sim is None:
            raise BenchError("simulation failed")
        digests["reads.fa"].add(check.sha256_file(reads))
        for role in roles:
            config = dict(spec[role], run_seed=spec[role]["run_seed"] + 2 * seed)
            result, assembly_rss, assembly_cpu, digest, bad = assemble(
                runner, reads, os.path.join(work, f"{role}{rep}"), config, floor,
                trace and role == "parallel", keep_as=os.path.join(work, f"{role}.fa"))
            if result is None:
                raise BenchError(f"the {role} assembly failed")
            cpu += assembly_cpu
            rss_mb = max(rss_mb, assembly_rss)
            problems += bad
            if digest:
                digests[role].add(digest)
            out.setdefault(role, []).append(result)
        out["cpu"].append(cpu)
        out["wall"].append(time.monotonic() - start)
        out["rss"].append(rss_mb)
        out["simulate_s"].append(sim["simulate_s"])
    for name, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"set-up repetitions wrote different {name} files")
    out["digests"] = {name: min(seen, default=None) for name, seen in digests.items()}
    return out


def run_workload(name, seed, seconds, trace, program, work, pinned, units):
    spec = WORKLOADS[name]
    floor = pinned["recovered_floor_pct"][name]
    runner = Runner(program, work)
    problems = []
    prepared = setup(runner, spec, seed, work, floor, trace, problems)

    # Timed part, until `seconds` have passed: an assembly in a fresh work
    # dir, or VALIDATE_COPIES concurrent copies of the validation.
    results, rss_mb, digests, section_iv = [], [], set(), set()
    attempted = failed = 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        if "assemble" in spec:
            result, rss, _, digest, bad = assemble(
                runner, prepared["reads"], os.path.join(work, f"run{attempted}"),
                spec["assemble"], floor, trace)
            if digest:
                digests.add(digest)
            outcomes = [(result, rss, bad)]
        else:
            outcomes = []
            for result, rss, _ in runner.call(
                    ["validate", "--transcripts", os.path.join(work, "parallel.fa"),
                     "--original", os.path.join(work, "original.fa"),
                     "--truth", prepared["inputs"]], copies=VALIDATE_COPIES):
                if result is None:
                    bad = ["the Section-IV validation failed"]
                else:
                    bad = check.check_section_iv(result, prepared["parallel"][0]["transcripts"])
                    section_iv.add(tuple(result[key] for key in SECTION_IV))
                outcomes.append((result, rss, bad))
        for result, rss, bad in outcomes:
            attempted += 1
            if bad:
                failed += 1
                problems += bad
            if result is not None:
                results.append(result)
                rss_mb.append(rss)
    if not results:
        raise BenchError("every iteration failed")
    if len(digests) > 1:
        problems.append("Trinity.fa differs between iterations")
    if len(section_iv) > 1:
        problems.append("the Section-IV counts differ between iterations")

    # The assemblies the per-layer and quality figures describe, and the
    # values pinned for the default seed.
    assembled = results if "assemble" in spec else prepared["parallel"]
    validated = [] if "assemble" in spec else results
    observed = {"recovered_isoforms": assembled[-1]["recovered_isoforms"]}
    if "assemble" in spec:
        observed["trinity_fa_sha256"] = min(digests, default=None)
    else:
        observed["trinity_fa_sha256"] = prepared["digests"]["parallel"]
        observed["original_fa_sha256"] = prepared["digests"]["original"]
        observed.update({key: validated[-1][key] for key in SECTION_IV})
    problems += check.check_pinned(seed, observed, pinned["default_seed"][name])

    print("perfbench: " + json.dumps({
        "workload": name, "seed": seed, "samples": len(results),
        "setup_samples": len(prepared["cpu"]),
        "wall_s": median([r["assembly_s" if "assemble" in spec else "validate_s"]
                          for r in results]),
        "setup_wall_s": median(prepared["wall"]), "reads": assembled[-1]["reads"],
        "transcripts": assembled[-1]["transcripts"], **observed}), flush=True)
    for p in problems:
        log(f"check failed: {p}")

    if trace:
        values = {}
        for key in units:
            if key == "sim.simulate_s":
                values[key] = median(prepared["simulate_s"])
            elif key == "trace.overhead_s":
                values[key] = median([r["traced_s"] - r["assembly_s"] for r in assembled])
            elif key == "validate.rss_mb":
                values[key] = median(rss_mb) if validated else 0
            elif key in VALIDATION_LAYER:
                values[key] = median([r[key] for r in validated]) if validated else 0
            else:
                values[key] = median([r[key] for r in assembled])
    else:
        last = assembled[-1]
        values = {
            "cpu_s": median([r["assembly_cpu_s" if "assemble" in spec else "validate_cpu_s"]
                             for r in results]),
            # The largest process of the run, set-up included: in `validate`
            # that is the parallel assembly, not the validation.
            "peak_rss_mb": max(median(prepared["rss"]), median(rss_mb)),
            "kmer_recall_pct": 100.0 * last["recovered_kmers"] / last["expressed_kmers"],
            "setup_s": median(prepared["cpu"]),
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        program, build_dir = build()
        print("perfbench: host " + json.dumps(host_info(build_dir)), flush=True)
        pinned = check.load_pinned()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in listed}
        work = os.path.join(bench_root(), "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  program, work, pinned, units)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
