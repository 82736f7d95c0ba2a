"""Output checks of the end-to-end benchmark.

Every check returns a list of problems; an empty list means the output is
correct. The checks hold on any seed, except the pinned comparison, which
applies only on the default seed and compares values that do not depend on
the thread count, the rank count or the build type.
"""

import hashlib
import json
import os

K = 25
DEFAULT_SEED = 0
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def load_pinned(path=PINNED_PATH):
    with open(path) as f:
        return json.load(f)


def read_fasta(path):
    """Returns [(name, bases)] in file order; raises ValueError on bad syntax."""
    records = []
    name = None
    chunks = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if line.startswith(">"):
                if name is not None:
                    records.append((name, "".join(chunks)))
                name = line[1:].split()[0] if line[1:].strip() else ""
                chunks = []
            elif name is None:
                raise ValueError(f"{path}:{lineno}: sequence before the first header")
            else:
                chunks.append(line)
    if name is not None:
        records.append((name, "".join(chunks)))
    return records


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def transcripts_summary(path, k=K):
    """Checks a Trinity.fa: every record named, at least k bases, ACGT only.

    Returns (summary, problems); summary holds records, bases and sha256.
    """
    problems = []
    try:
        records = read_fasta(path)
    except (OSError, ValueError) as e:
        return None, [f"unreadable transcripts: {e}"]
    if not records:
        problems.append(f"{path}: no transcripts")
    names = set()
    for name, bases in records:
        if not name:
            problems.append(f"{path}: a transcript has no name")
        elif name in names:
            problems.append(f"{path}: duplicate transcript {name}")
        names.add(name)
        if len(bases) < k:
            problems.append(f"{path}: {name} has {len(bases)} bases, fewer than k={k}")
        if bases.strip("ACGT"):
            problems.append(f"{path}: {name} holds bases other than ACGT")
    summary = {
        "records": len(records),
        "bases": sum(len(b) for _, b in records),
        "sha256": sha256_file(path),
    }
    return summary, problems


def check_assembly(summary, reported, recovered_floor_pct):
    """The file on disk against what the assembler reported, plus recovery."""
    problems = []
    if summary["records"] != reported["transcripts"]:
        problems.append(f"Trinity.fa holds {summary['records']} records, "
                        f"the assembler returned {reported['transcripts']}")
    if summary["bases"] != reported["transcript_bases"]:
        problems.append(f"Trinity.fa holds {summary['bases']} bases, "
                        f"the assembler returned {reported['transcript_bases']}")
    recovered = reported["recovered_expressed"]
    expressed = reported["expressed_isoforms"]
    if not 0 < expressed <= reported["references"]:
        problems.append(f"{expressed} expressed isoforms of {reported['references']}")
    elif recovered > expressed or reported["recovered_isoforms"] > reported["references"]:
        problems.append("more isoforms recovered than exist")
    elif 100.0 * recovered / expressed < recovered_floor_pct:
        problems.append(f"recovered {recovered} of {expressed} expressed isoforms, "
                        f"below the floor of {recovered_floor_pct}%")
    return problems


def check_section_iv(reported, transcripts):
    """Invariants of the Section-IV counts that hold on every seed.

    `transcripts` is the number of records of the validated Trinity.fa.
    """
    problems = []
    genes = reported["full_length_genes"]
    isoforms = reported["full_length_isoforms"]
    if not genes <= isoforms <= reported["references"]:
        problems.append(f"full-length genes {genes} <= isoforms {isoforms} <= "
                        f"references {reported['references']} does not hold")
    if reported["validate.queries"] != transcripts:
        problems.append(f"validation read {reported['validate.queries']} queries, "
                        f"the assembly has {transcripts} transcripts")
    if reported["fig4_total"] != reported["validate.queries"]:
        problems.append(f"Fig-4 categories total {reported['fig4_total']}, "
                        f"not the {reported['validate.queries']} queries")
    if reported["fig4_identical"] > reported["fig4_total"]:
        problems.append("more identical transcripts than queries")
    return problems


def check_pinned(seed, observed, pinned_for_workload):
    """On the default seed only: every pinned value must be observed exactly."""
    if seed != DEFAULT_SEED:
        return []
    problems = []
    for key, want in sorted(pinned_for_workload.items()):
        got = observed.get(key)
        if got != want:
            problems.append(f"default seed: {key} is {got}, pinned {want}")
    return problems
