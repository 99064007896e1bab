"""nlode benchmark: time to a checked solution, set-up time, memory, layer work.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports nlode from ./src and reads
the shipped configs in ./configs.  NAME is one of the workloads in
perfbench/workloads.py.  The seed makes the inputs; the same seed gives
the same inputs.

Every pass over a workload runs in a fresh worker process, as every
`nlode solve` does, so the sampler cache starts cold each time.  A run
makes as many passes as fit in S seconds, at least one, and each metric
is the median over them.  Scratch files live in a temporary directory
inside the checkout, removed at the end of the run.

--trace 0 reports the end-to-end metrics: `wall_s` (first call into nlode
to last checked result, per pass), `setup_s` (process start until
`import nlode` returns, median over every worker of the run and
SETUP_SAMPLES bare processes, half before the passes and half after) and
`peak_rss_mb` (peak resident memory of the worker).
--trace 1 runs pairs of one untraced and one traced pass and reports the
per-layer metrics of the traced passes (perfbench/tracer.py) plus
`trace.overhead_s`, the traced wall_s minus the untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; an operation is one problem and
it fails if it raises or misses its tolerance.  The lines before it give
each metric by name and unit, the failures and the environment.  The
benchmark exits with 1 and prints no result if it cannot measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer

sys.path.insert(0, str(Path.cwd() / "src"))
try:
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import nlode from ./src ({exc}); run from the repository root")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 12
# time a run may take beyond S: set-up samples, and the last pass (a pair
# when tracing) started while S had not yet run out
DEADLINE_MARGIN_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")
WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


class Workers:
    """Starts worker processes for one workload, all inside a scratch directory."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.src = (root / "src").resolve()
        self.deadline = deadline
        self.env = dict(os.environ)
        paths = [str(self.src)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def spawn(self, args: list[str], cwd: Path) -> tuple[float, dict | None]:
        """Run one worker; return its set-up time and its result record."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("ran out of time before the run was done")
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), *args], cwd=cwd, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                out, err = proc.communicate()
            except BaseException:
                proc.kill()
                raise
            finally:
                killer.cancel()
        if ready.strip() != "@@ready" or proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited with {proc.returncode}: {err.strip()[-2000:]}")
        results = [line[len("@@result "):] for line in out.splitlines() if line.startswith("@@result ")]
        if not results:
            return setup_s, None
        record = json.loads(results[-1])
        if not Path(record["nlode_file"]).resolve().is_relative_to(self.src):
            raise BenchError(f"worker imported nlode from {record['nlode_file']}, not {self.src}")
        return setup_s, record

    def run_pass(self, workload: str, inputs: dict, trace: bool, scratch: Path) -> dict:
        cwd = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
        try:
            args = [workload, json.dumps(inputs), str(self.root / "configs"), "1" if trace else "0"]
            setup_s, record = self.spawn(args, cwd)
        finally:
            shutil.rmtree(cwd)
        if record is None:
            raise BenchError(f"worker for {workload} printed no result")
        record["setup_s"] = setup_s
        return record

    def setup_samples(self, scratch: Path) -> list[float]:
        return [self.spawn(["--setup-only"], scratch)[0] for _ in range(SETUP_SAMPLES // 2)]


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run of one workload, and the metrics made from them."""
    workers = Workers(root, time.perf_counter() + seconds + DEADLINE_MARGIN_S)
    inputs = workloads.make_inputs(workload, seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=root) as tmp:
        scratch = Path(tmp)
        # set-up time drifts with the host over seconds, so its samples
        # are spread over the whole run
        setups = [] if trace else workers.setup_samples(scratch)
        plain, traced, durations = [], [], []
        start = time.perf_counter()
        # start another pass (a pair when tracing) only if a typical one still fits
        while not durations or (time.perf_counter() - start
                                + statistics.median(durations) <= seconds):
            begun = time.perf_counter()
            if trace and len(plain) % 2:
                # alternate which side of a pair runs first
                traced.append(workers.run_pass(workload, inputs, True, scratch))
                plain.append(workers.run_pass(workload, inputs, False, scratch))
            else:
                plain.append(workers.run_pass(workload, inputs, False, scratch))
                if trace:
                    traced.append(workers.run_pass(workload, inputs, True, scratch))
            durations.append(time.perf_counter() - begun)
        if not trace:
            setups += workers.setup_samples(scratch) + [p["setup_s"] for p in plain]
    passes = plain + traced
    return {
        "workload": workload,
        "metrics": (layer_metrics(plain, traced) if trace
                    else end_to_end_metrics(plain, setups)),
        "attempted": sum(p["ops_total"] for p in passes),
        "failed": sum(p["ops_failed"] for p in passes),
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "passes": len(passes),
        "notes": layer_notes(traced),
    }


def end_to_end_metrics(passes: list[dict], setups: list[float]) -> dict:
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    metrics = {}
    for name, unit in tracer.PER_LAYER:
        if unit == "s":
            value = statistics.median(p["layers"][name] for p in traced)
        else:
            value = traced[0]["layers"][name]
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def layer_notes(traced: list[dict]) -> list[str]:
    """Boundaries not found, and counts that did not repeat between passes."""
    if not traced:
        return []
    notes = [f"absent boundary: {name}" for name in traced[0]["absent"]]
    for name, unit in tracer.PER_LAYER:
        seen = sorted({p["layers"][name] for p in traced})
        if unit != "s" and len(seen) > 1:
            notes.append(f"count {name} differs between traced passes: {seen}")
    return notes


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code: versions, cores, threads."""
    import numpy

    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                                    cwd=root, capture_output=True, text=True,
                                    timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired) as exc:
            commit = f"unknown: {exc}"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        blas = {"error": repr(exc)}
    return {
        "commit": commit,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
        "platform": platform.platform(),
    }


def report(run: dict) -> list[str]:
    lines = [f"workload {run['workload']}: {run['passes']} passes, "
             f"ops_failed {run['failed']} of ops_total {run['attempted']}"]
    for name, metric in run["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    lines += [f"  failure: {f}" for f in run["failures"]]
    lines += [f"  note: {n}" for n in run["notes"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to fill with passes (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that workers are killed and scratch files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "nlode" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"perfbench: {root} has no src/nlode and configs; run from the repository root",
              file=sys.stderr)
        return 1
    try:
        run = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(run)))
    print("env " + json.dumps(environment(root)))
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
