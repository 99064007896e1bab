"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py WORKLOAD INPUTS_JSON CONFIG_DIR TRACE

nlode must be importable (run.py puts the checkout's src on PYTHONPATH).
The worker prints "@@ready" as soon as `import nlode` returns, so the
parent can time set-up, then runs the pass in its working directory and
prints "@@result" with a JSON record.  Other output is nlode's own.
"""

import sys

import nlode

print("@@ready", flush=True)


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        return 0
    import json
    import resource

    import tracer
    import workloads

    workload, inputs, config_dir, trace = argv
    recorder = None
    if trace == "1":
        recorder = tracer.Tracer()
        recorder.install()
    result = workloads.run_pass(workloads.problems_for(workload, json.loads(inputs), config_dir))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["nlode_file"] = nlode.__file__
    if recorder is not None:
        result["layers"] = recorder.metrics()
        result["absent"] = recorder.absent
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
