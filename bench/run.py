#!/usr/bin/env python3
"""Benchmark of the inversive package's two user flows, gen | render and
convert | verify, driven through the library API.

    python3 bench/run.py --workload gen-render-exact --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One run prints a run record (inputs, machine, per-round rates, every failed
operation) as a JSON line, then the result as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run also repeats its timed phase
with every layer wrapped and reports the per-layer ones.  See README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("gen-render-exact", "gen-float", "stream-render", "config-ops")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = (("items_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    from tracing import LAYERS
    units = {f"{m}.{f}.self_s": "s" for m, f, _ in LAYERS}
    units.update({
        "apollonian.generate.calls": "count",
        "apollonian.generate.rows": "count",
        "apollonian.generate.us_per_row": "us",
        "apollonian.generate.reflections": "count",
        "apollonian.generate.rows_per_reflection": "ratio",
        "apollonian.realize_bends.failed": "count",
        "apollonian.loxodromic.steps": "count",
        "shell.dumps_packing.mb_per_s": "MB/s",
        "shell.loads_packing.mb_per_s": "MB/s",
        "svg.render.circles_drawn": "count",
        "forms.check_identity.calls": "count",
        "forms.check_identity.not_ok": "count",
        "transform.convert_matrix.failed": "count",
        "trace.timed_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def load_package():
    """Import inversive from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "inversive" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'inversive'}")
    sys.path.insert(0, str(src))
    import inversive
    if Path(inversive.__file__).resolve().parent != (src / "inversive").resolve():
        raise SystemExit(f"error: imported inversive from {inversive.__file__}")
    sys.path.insert(0, str(BENCH))
    return inversive


def load_reference():
    return json.loads((BENCH / "reference.json").read_text())


def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine():
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in (read_text("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def loadavg():
    text = read_text("/proc/loadavg")
    return text.split()[:3] if text else None


def set_up(args):
    """Everything before the timed phase: inputs, warm-up pass, collection."""
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                  load_reference())
    workload.setup()
    warm = workloads.Runner(counting=False)
    warm.start_round()
    workload.warm_up(warm)
    gc.collect()
    return workload


def probe_setup(args):
    """Seconds from starting a fresh interpreter until it has imported the
    package, built the inputs and warmed up."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--setup-probe"],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        child.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"error: set-up probe exited {child.returncode}")
    return ready - start


def timed_phase(workload, run):
    """Run every round; returns the items of one round."""
    items = set()
    for _ in range(workload.rounds):
        run.start_round()
        items.add(workload.run_round(run))
    if len(items) != 1:
        raise RuntimeError(f"rounds completed different item counts {items}")
    return items.pop()


def traced_phase(package, workload, run):
    """The timed phase again with every layer wrapped; returns the
    per-layer metrics and the items per second traced."""
    from tracing import Tracer, root_time, self_times
    tracer = Tracer()
    run.rounds, run.tracer = [], tracer
    tracer.install(package)
    gc.collect()
    try:
        items = timed_phase(workload, run)
    finally:
        tracer.uninstall()
        run.tracer = None
    elapsed = run.elapsed
    selfs = self_times(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for name in per_layer_units():
        if name.endswith(".self_s"):
            metrics[name] = selfs.get(name[:-len(".self_s")], 0.0)
    gen_rows = counts["apollonian.generate.rows"]
    reflections = counts["apollonian.generate.reflections"]
    gen_s = metrics["apollonian.generate.self_s"]
    metrics.update({
        "apollonian.generate.calls": counts["apollonian.generate.calls"],
        "apollonian.generate.rows": gen_rows,
        "apollonian.generate.reflections": reflections,
        "apollonian.generate.us_per_row": 1e6 * gen_s / gen_rows if gen_rows else 0.0,
        "apollonian.generate.rows_per_reflection":
            gen_rows / reflections if reflections else 0.0,
        "apollonian.realize_bends.failed": counts["apollonian.realize_bends.failed"],
        "apollonian.loxodromic.steps": counts["apollonian.loxodromic.steps"],
        "svg.render.circles_drawn": counts["svg.render.circles_drawn"],
        "forms.check_identity.calls": counts["forms.check_identity.calls"],
        "forms.check_identity.not_ok": counts["forms.check_identity.not_ok"],
        "transform.convert_matrix.failed": counts["transform.convert_matrix.failed"],
        "trace.timed_s": elapsed,
        "trace.unattributed_s": elapsed - root_time(tracer.spans),
    })
    for layer in ("dumps_packing", "loads_packing"):
        seconds = metrics[f"shell.{layer}.self_s"]
        mb = counts[f"shell.{layer}.bytes"] / 1e6
        metrics[f"shell.{layer}.mb_per_s"] = mb / seconds if seconds else 0.0
    return metrics, items / run.seconds()


def run_one(args):
    load_start = loadavg()
    package = load_package()
    import workloads
    setup_samples = [] if args.trace else \
        [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload = set_up(args)
    run = workloads.Runner()
    items = timed_phase(workload, run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    items_per_s = items / run.seconds()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "rounds": workload.rounds,
              "loop": "closed, one caller, one thread",
              "items_per_round": items, "calls_per_round": len(run.rounds[0]),
              "round_items_per_s": [items / sum(r) for r in run.rounds],
              "loop_s_median": statistics.median(
                  k for ks in run.loops for k in ks),
              "setup_samples_s": setup_samples, **workload.describe()}
    if args.trace:
        metrics, traced_items_per_s = traced_phase(package, workload, run)
        metrics["trace.overhead_ratio"] = traced_items_per_s / items_per_s
        units = per_layer_units()
    else:
        metrics = {"items_per_s": items_per_s,
                   "setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    run.finish()
    metrics["ok_ratio"] = (run.attempted - run.failed) / run.attempted
    record.update({"attempted": run.attempted, "failed": run.failed,
                   "unknown_failures": run.unknown_failures,
                   "failures": run.failure_list(), "machine": machine(),
                   "loadavg_start": load_start, "loadavg_end": loadavg()})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.unknown_failures == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after another; prints every
    metric by name and unit and the verdict of the output checks."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"] if len(lines) > 1 else {}
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:44s} {value['value']:>14.6g} {value['unit']}")
        for failure in record.get("failures", []):
            print(f"  failed x{failure['count']} {failure['kind']} "
                  f"{failure['input']}: {failure['reason']} "
                  f"[{failure['defect'] or 'UNKNOWN'}]")
        if not result["correct"]:
            status = 1
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        load_package()
        set_up(args)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
