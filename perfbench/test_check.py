"""Self-tests of the benchmark's output check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: each test writes a small Trinity.fa, takes the report
of a correct run, corrupts one thing, and expects the check to object.
"""

import json
import os
import random
import tempfile
import unittest

import check
import run


def write_fasta(path, records):
    with open(path, "w") as f:
        for name, bases in records:
            f.write(f">{name}\n{bases}\n")


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        rng = random.Random(7)
        self.records = [(f"comp{i}_seq0", "".join(rng.choice("ACGT") for _ in range(300 + 40 * i)))
                        for i in range(4)]
        self.good = self.path("good.fa")
        write_fasta(self.good, self.records)
        summary, problems = check.transcripts_summary(self.good)
        self.assertEqual(problems, [])
        # What the assembler reported for the good file, plus validation.
        self.reported = {
            "transcripts": summary["records"], "transcript_bases": summary["bases"],
            "references": 10, "expressed_isoforms": 5, "recovered_expressed": 5,
            "recovered_isoforms": 6, "full_length_genes": 3, "full_length_isoforms": 4,
            "fig4_identical": 4, "fig4_total": 4, "validate.queries": 4,
        }
        self.pinned = {"trinity_fa_sha256": summary["sha256"], "full_length_genes": 3,
                       "full_length_isoforms": 4, "fused_transcripts": 1,
                       "fig4_identical": 4}

    def tearDown(self):
        self.tmp.cleanup()

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def problems_for(self, fasta, seed, reported=None, observed_counts=None):
        """Every check run.py applies to one iteration's output."""
        reported = reported or self.reported
        summary, problems = check.transcripts_summary(fasta)
        if summary is None:
            return problems
        problems += check.check_assembly(summary, reported, recovered_floor_pct=80)
        problems += check.check_section_iv(reported, reported["transcripts"])
        observed = {"trinity_fa_sha256": summary["sha256"], "full_length_genes": 3,
                    "full_length_isoforms": 4, "fused_transcripts": 1, "fig4_identical": 4}
        observed.update(observed_counts or {})
        problems += check.check_pinned(seed, observed, self.pinned)
        return problems

    def test_correct_output_passes_on_every_seed(self):
        for seed in (check.DEFAULT_SEED, 1, 17):
            self.assertEqual(self.problems_for(self.good, seed), [])

    def test_truncated_transcript_is_rejected(self):
        records = list(self.records)
        name, bases = records[2]
        records[2] = (name, bases[:-60])
        bad = self.path("truncated.fa")
        write_fasta(bad, records)
        for seed in (check.DEFAULT_SEED, 5):
            problems = self.problems_for(bad, seed)
            self.assertTrue(any("bases" in p for p in problems), problems)
        self.assertTrue(any("pinned" in p for p in self.problems_for(bad, check.DEFAULT_SEED)))

    def test_transcript_shorter_than_k_is_rejected(self):
        records = list(self.records)
        records[0] = (records[0][0], records[0][1][:check.K - 1])
        bad = self.path("short.fa")
        write_fasta(bad, records)
        problems = self.problems_for(bad, 5)
        self.assertTrue(any("fewer than k" in p for p in problems), problems)

    def test_dropped_record_is_rejected(self):
        bad = self.path("dropped.fa")
        write_fasta(bad, self.records[:1] + self.records[2:])
        for seed in (check.DEFAULT_SEED, 5):
            problems = self.problems_for(bad, seed)
            self.assertTrue(any("records" in p for p in problems), problems)

    def test_validate_count_from_wrong_seed_is_rejected(self):
        problems = self.problems_for(self.good, check.DEFAULT_SEED,
                                     observed_counts={"full_length_genes": 2})
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("full_length_genes", problems[0])

    def test_broken_section_iv_invariants_are_rejected(self):
        for change in ({"full_length_genes": 5}, {"full_length_isoforms": 11},
                       {"fig4_total": 3}):
            reported = dict(self.reported, **change)
            self.assertNotEqual(self.problems_for(self.good, 5, reported=reported), [], change)

    def test_recovery_below_floor_is_rejected(self):
        reported = dict(self.reported, recovered_expressed=3)
        problems = self.problems_for(self.good, 5, reported=reported)
        self.assertTrue(any("floor" in p for p in problems), problems)


class PinnedFileTest(unittest.TestCase):
    def test_benchmark_json_lists_the_workloads_run_py_runs(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            listed = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(sorted(listed), sorted(run.WORKLOADS))

    def test_every_workload_has_a_floor_and_pins(self):
        pinned = check.load_pinned()
        for workload in run.WORKLOADS:
            self.assertGreater(pinned["recovered_floor_pct"][workload], 0)
            pins = pinned["default_seed"][workload]
            self.assertIn("trinity_fa_sha256", pins)
            self.assertIn("recovered_isoforms", pins)
            if "original" in run.WORKLOADS[workload]:
                for key in ("original_fa_sha256", "full_length_genes", "full_length_isoforms",
                            "fused_transcripts", "fig4_identical"):
                    self.assertIn(key, pins)


if __name__ == "__main__":
    unittest.main()
