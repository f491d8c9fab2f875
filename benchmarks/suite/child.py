"""One run of one workload in a fresh interpreter.

    python -m benchmarks.suite.child --workload NAME --seed N [--trace]

The runner starts one of these per repeat, so every repeat pays the
import and set-up a user pays and its peak memory is its own.  The last
line of standard output is one JSON object with the host timings, the
workload's measurements and, with ``--trace``, the stack samples per
layer; a traced run also writes its phase spans to
``benchmarks/out/<workload>.trace.json``.
"""

import time

START = time.perf_counter()  # before anything imports the program

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
OUT_DIR = os.path.join(ROOT, "benchmarks", "out")


def _chrome_trace(workload, spans, origin, samples):
    """Phase spans as Chrome trace events (load in chrome://tracing)."""
    events = [
        {
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"depth": depth},
        }
        for name, start, end, depth in spans
    ]
    return {"traceEvents": events, "workload": workload, "layer_samples": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    from benchmarks.suite.probes import pin_to_one_core

    pin_to_one_core()
    sys.path.insert(0, SRC)
    sampler = None
    if args.trace:
        from benchmarks.suite.layers import LayerMap
        from benchmarks.suite.probes import StackSampler

        sampler = StackSampler(LayerMap(PACKAGE))
        sampler.start()

    import_start = time.perf_counter()
    from benchmarks.suite.probes import Probes
    from benchmarks.suite.workloads import WORKLOADS

    import repro

    import_s = time.perf_counter() - import_start
    if os.path.dirname(os.path.realpath(repro.__file__)) != os.path.realpath(PACKAGE):
        raise SystemExit(f"imported repro from {repro.__file__}, not {PACKAGE}")

    workload = WORKLOADS[args.workload]
    with Probes() as probes:
        result = workload.run(args.seed)
        end = time.perf_counter()
    if sampler is not None:
        sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    phases = probes.timer.totals
    wall_s = end - START
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.trace,
        "wall_s": wall_s,
        "import_s": import_s,
        "setup_world_s": phases.get("setup_world", 0.0),
        "setup_build_s": phases.get("setup_build", 0.0),
        "run_s": phases.get("run", 0.0),
        "rss_mb": rss_mb,
    }
    record["setup_s"] = import_s + record["setup_world_s"] + record["setup_build_s"]
    record["report_s"] = wall_s - record["setup_s"] - record["run_s"]
    record.update(workload.measure(result, probes))
    if sampler is not None:
        record["samples"] = dict(sampler.counts)
        record["samples_outside"] = sampler.outside
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload.name}.trace.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                _chrome_trace(workload.name, probes.timer.spans, START,
                              record["samples"]),
                handle,
            )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
