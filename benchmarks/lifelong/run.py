"""The lifelong benchmark: cold build, edit-rebuild, run, serve.

    python3 benchmarks/lifelong/run.py --workload suite-cold-build \\
        --seed 1 --seconds 15 --trace 0

runs one workload: set-up, the timed region (whole units of work until
`--seconds` have passed), then the output checks.  It prints every
metric by name with its unit, and as its last line one JSON object
`{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
metrics of BENCHMARK.json.  With `--trace 1` the same run is followed
by a replay in which every layer is called in its own span; the last
line then holds the per-layer metrics, and the spans are written as
Chrome-trace JSON under `.bench_work/`.  Exit status is non-zero if
any build, run or response was wrong.  See README.md.
"""

import time

START = time.perf_counter()     # set-up is timed from here

import argparse                 # noqa: E402
import json                     # noqa: E402
import os                       # noqa: E402
import shutil                   # noqa: E402
import signal                   # noqa: E402
import sys                      # noqa: E402

import common                   # noqa: E402  (puts src/ on sys.path)
from edit_rebuild import EditRebuild                # noqa: E402
from run_suite import RunSuite                      # noqa: E402
from serve_closed_loop import ServeClosedLoop       # noqa: E402
from suite_cold_build import SuiteColdBuild         # noqa: E402

WORKLOADS = {cls.name: cls for cls in (SuiteColdBuild, EditRebuild, RunSuite,
                                       ServeClosedLoop)}


def _print_rows(title: str, spec: list, values: dict) -> dict:
    """Print one row per declared metric; returns the JSON `metrics`."""
    print(title)
    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name, 0)
        note = ""
        if hasattr(value, "describe"):     # Samples or SumOfMedians
            note = "  " + value.describe()
            value = value.median
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:>16.6g} {unit:8s}{note}")
    unknown = set(values) - set(metrics)
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also append the result, as one JSON line, "
                             "to FILE (the input of compare.py)")
    args = parser.parse_args(argv)

    os.chdir(common.ROOT)
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    workdir = os.path.join(common.WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    layers = None
    try:
        workload.setup()
        setup_s = time.perf_counter() - START
        values = workload.measure(seconds)
        values.update(workload.check())
        values["setup_s"] = setup_s
        if args.trace:
            tracer = common.Tracer()
            layers = workload.trace(tracer, values)
            trace_path = os.path.join(
                common.WORK, f"trace-{workload.name}-{args.seed}.json")
            tracer.write(trace_path)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"unit of work: {workload.unit}")
    metrics = _print_rows("end-to-end (untraced)", spec["end_to_end"], values)
    if layers is not None:
        metrics = _print_rows("per layer (traced replay)", spec["per_layer"],
                              layers)
        print(f"spans written to {trace_path}")
    for failure in workload.failures:
        print(f"FAILED  {failure}")
    failed = len(workload.failures)
    print(f"failed_ratio {failed}/{workload.attempted}")
    result = {"correct": failed == 0, "attempted": workload.attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": workload.name, "seed": args.seed,
                "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _terminated(signum, frame):
    raise SystemExit(128 + signum)      # so that every `finally` runs


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    common.adopt_orphans()
    try:
        status = main()
    finally:
        # Every workload stops and waits for what it started; this
        # holds on the paths where it could not (a killed daemon's
        # workers, an exception between a start and its `try`).
        common.stop_children()
    sys.exit(status)
