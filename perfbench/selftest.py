"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

They check that every workload's checker rejects a wrong answer and a
raised error, that the traced run's work counts repeat exactly, that the
metric lists match BENCHMARK.json, and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nlode  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, "perfbench/run.py"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def answered(problem: workloads.Problem, solve) -> workloads.Problem:
    return workloads.Problem(problem.label, solve, problem.exact, problem.check)


class CheckerTest(unittest.TestCase):
    def problems(self, workload):
        return workloads.problems_for(workload, workloads.make_inputs(workload, 11),
                                      str(ROOT / "configs"))

    def test_exact_answers_pass(self):
        for workload in workloads.WORKLOADS:
            problems = [answered(p, p.exact) for p in self.problems(workload)]
            self.assertEqual(workloads.run_pass(problems)["ops_failed"], 0, workload)

    def test_answer_off_by_1e_5_fails(self):
        for workload in workloads.WORKLOADS:
            problems = [answered(p, lambda p=p: p.exact() + 1e-5) for p in self.problems(workload)]
            result = workloads.run_pass(problems)
            self.assertEqual(result["ops_failed"], result["ops_total"], workload)

    def test_hypothesis_error_fails(self):
        def refuse():
            raise nlode.HypothesisError("hypothesis refused")

        for workload in workloads.WORKLOADS:
            result = workloads.run_pass([answered(p, refuse) for p in self.problems(workload)])
            self.assertEqual(result["ops_failed"], result["ops_total"], workload)
            self.assertIn("HypothesisError", result["failures"][0])

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.make_inputs(workload, 3), workloads.make_inputs(workload, 3))


class TracedCountsTest(unittest.TestCase):
    def test_counts_repeat_between_runs(self):
        runs = []
        for _ in range(2):
            done = bench("--workload", "cli_configs", "--seed", "5", "--seconds", "0", "--trace", "1")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertTrue(result["correct"], done.stdout)
            runs.append({name: m["value"] for name, m in result["metrics"].items()
                         if m["unit"] != "s"})
        self.assertEqual(runs[0], runs[1])
        for name in ("symbols.eval_symbol.calls", "special_functions.zeta.points",
                     "transforms.sampler_build.nodes", "transforms.sampler_eval.point_nodes",
                     "oracles.residual_check.orders_used", "solver.solve.calls"):
            self.assertGreater(runs[0][name], 0, name)


class ContractTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [*tracer.PER_LAYER, ("trace.overhead_s", "s")])
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.WORKLOADS)

    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "zeta_eigen", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
