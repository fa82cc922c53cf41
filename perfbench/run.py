"""Benchmark entry point: time to a checked bound on one bernpop workload.

    python3 perfbench/run.py --workload bnb-l0 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The process repeats whole rounds of the
workload's operations while another round fits in ``--seconds``, checks
every output with ``checks.py`` and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer split of
traced rounds with ``--trace 1``.  Raw results and spans go to
``perfbench/out/``.  It exits 1 when an operation fails or a check does
not hold, and 2 when it cannot find bernpop's sources.
"""

from __future__ import annotations

import os

# one thread per process: numpy's BLAS must not start a pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
PROBE_INTERVAL_S = 0.1
SETUP_PROBE_INTERVAL_S = 0.01
PROBE_REF_S = 2.5e-4
COUNT_KEYS = ("relax.cut_rounds", "relax.rows_activated", "simplex.pivots")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("bnb-l0", "bnb-l2", "lyapunov", "exact"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class SpeedProbe:
    """Samples how fast this core runs Python while a round or set-up runs.

    The per-core speed of a small shared VM drifts by tens of percent over
    seconds to minutes, which swamps a change in bernpop.  A SIGPROF timer
    (a signal, not a thread) times a fixed sum of squares of rationals
    after every ``interval`` seconds of CPU time; ``rescale`` removes the
    samples from a wall time and rescales it to the speed at which that
    sum takes PROBE_REF_S.  Of the loops tried, this one tracked the round
    times of the bnb-l2, lyapunov and exact workloads best (correlation of
    log times 0.93 to 0.96).
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list = []
        rng = random.Random(0)
        self._terms = [Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000)) for _ in range(40)]

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for x in self._terms:
            acc += x * x
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mean(self) -> float:
        return statistics.fmean(self.samples) if self.samples else 0.0

    def scaled(self, wall: float) -> float:
        return rescale(wall, sum(self.samples), self.mean())


def rescale(wall: float, probe_total: float, probe_mean: float) -> float:
    return (wall - probe_total) * PROBE_REF_S / probe_mean if probe_mean else wall


def measure_setup(workload: str) -> tuple[list, list, list]:
    """Wall time from starting a fresh interpreter to the point where the
    first solve could begin, in separate processes, raw and rescaled by the
    child's speed probe; each child also reports how long its fixture
    parsing took."""
    walls, scaled, loads = [], [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            walls.append(time.perf_counter() - t0)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or not line.startswith("ready "):
                raise RuntimeError(f"set-up child failed: {line!r}")
        load_s, probe_total, probe_mean = (float(v) for v in line.split()[1:])
        loads.append(load_s)
        scaled.append(rescale(walls[-1], probe_total, probe_mean))
    return walls, scaled, loads


def run_round(ops, probe=None) -> dict:
    records, op_seconds = [], []
    start = time.perf_counter()
    for label, kind, fixture, run in ops:
        t0 = time.perf_counter()
        try:
            record = run()
        except Exception as exc:  # a raising operation counts as failed
            record = {"error": f"{type(exc).__name__}: {exc}"}
        op_seconds.append(time.perf_counter() - t0)
        records.append(record)
    wall = time.perf_counter() - start
    counters: dict = {}
    for record in records:
        for key, value in record.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    return {
        "wall": wall,
        "scaled": probe.scaled(wall) if probe else wall,
        "probe_mean": probe.mean() if probe else None,
        "records": records,
        "op_seconds": op_seconds,
        "counters": counters,
    }


def check_round(ops, rnd, data, rng) -> list:
    """Failure messages, one per failed operation."""
    import workloads

    failures = []
    for (label, kind, fixture, _), record in zip(ops, rnd["records"]):
        try:
            if "error" in record:
                raise checks.CheckFailed(record["error"])
            if kind == "bnb":
                checks.check_bnb(data["bnb", fixture], record, record["epsilon"], rng)
            elif kind == "lyapunov":
                checks.check_lyapunov(label, fixture, record, data["lyapunov", fixture])
            else:
                key = ",".join(map(str, record["degree"]))
                if ("float_p2", key) not in data:
                    data["float_p2", key] = workloads.float_level2(fixture, record["degree"])
                checks.check_chain(label, record, data["reference"][fixture][key], data["float_p2", key])
        except checks.CheckFailed as exc:
            failures.append(f"{label}: {exc}")
    return failures


def check_data(ops, rng) -> dict:
    """Everything the checks compare against, computed apart from bernpop."""
    data = {"reference": checks.load_reference()}
    for _, kind, fixture, _ in ops:
        if kind == "bnb" and ("bnb", fixture) not in data:
            data["bnb", fixture] = checks.bnb_problem(fixture)
        if kind == "lyapunov" and ("lyapunov", fixture) not in data:
            data["lyapunov", fixture] = checks.sample_minima(checks.lyapunov_case(fixture), rng)
    return data


def layer_metrics(ops, plain, traced, tracers, load_s) -> tuple[dict, list]:
    """Per-layer metrics of the median traced round, plus the identities
    that tie the traced rounds to the untraced ones."""
    import spans
    import workloads

    problems = []
    for rnd in traced:
        if rnd["counters"] != plain[0]["counters"]:
            problems.append(f"traced counters {rnd['counters']} differ from untraced {plain[0]['counters']}")
    per_round = []
    for rnd, tracer in zip(traced, tracers):
        summary = tracer.summary()
        m = {}
        for name in ("poly.to_unit_box", "poly.restrict_facet", "bernstein.to_bernstein",
                     "relax.bound_at_level", "relax.build_cut_matrix", "relax.scan_violations",
                     "simplex.solve"):
            m[f"{name}.calls"] = summary[name]["calls"] if name in summary else 0
        for bucket, names in spans.SELF_BUCKETS.items():
            m[bucket] = sum((summary[n]["self"] for n in names if n in summary), 0.0)
        for name in ("bnb.monotonicity", "bnb.sample_upper_bound"):
            m[f"{name}.s"] = summary[name]["total"] if name in summary else 0.0
        for key in COUNT_KEYS:
            m[key] = tracer.counts.get(key, 0)
        m["simplex.pivots_per_solve"] = m["simplex.pivots"] / m["simplex.solve.calls"] if m["simplex.solve.calls"] else 0.0
        m["trace.wall_s"] = rnd["wall"]
        m["trace.unattributed_s"] = rnd["wall"] - sum(m[b] for b in spans.SELF_BUCKETS)
        c = rnd["counters"]
        expected_bounds = (c.get("bnb.nodes", 0) + c.get("bnb.edge_nodes", 0)
                           + c.get("lyapunov.boxes", 0) + len(workloads.CHAIN_LEVELS) * c.get("relax.chains", 0))
        if m["relax.bound_at_level.calls"] != expected_bounds:
            problems.append(f"{m['relax.bound_at_level.calls']} traced bounds for {expected_bounds} nodes")
        if m["trace.unattributed_s"] < 0:
            problems.append(f"layer self times exceed the traced wall by {-m['trace.unattributed_s']} s")
        per_round.append(m)
    counts = [{k: v for k, v in r.items() if k in COUNT_KEYS or k.endswith(".calls")} for r in per_round]
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between rounds")
    # one whole traced round, the one of median wall time, so its parts add up
    order = sorted(range(len(per_round)), key=lambda i: per_round[i]["trace.wall_s"])
    metrics = dict(per_round[order[(len(order) - 1) // 2]])
    c = plain[0]["counters"]
    for key in ("bnb.nodes", "bnb.edge_nodes", "bnb.cutoff_closures", "bnb.monotone_closures",
                "lyapunov.boxes", "lyapunov.verified_boxes", "lyapunov.stalled_boxes"):
        metrics[key] = c.get(key, 0)
    bnb_s = statistics.median(sum(t for (_, k, _, _), t in zip(ops, r["op_seconds"]) if k == "bnb") for r in plain)
    lyap_s = statistics.median(sum(t for (_, k, _, _), t in zip(ops, r["op_seconds"]) if k == "lyapunov") for r in plain)
    metrics["bnb.nodes_per_s"] = (metrics["bnb.nodes"] + metrics["bnb.edge_nodes"]) / bnb_s if bnb_s else 0.0
    metrics["lyapunov.boxes_per_s"] = metrics["lyapunov.boxes"] / lyap_s if lyap_s else 0.0
    metrics["problems.load.s"] = statistics.median(load_s)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(r["wall"] for r in plain)
    return metrics, problems


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bernpop" / "__init__.py").is_file():
        print(f"perfbench: bernpop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        with SpeedProbe(SETUP_PROBE_INTERVAL_S) as probe:
            import workloads

            t0 = time.perf_counter()
            workloads.setup(args.workload)
            load_s = time.perf_counter() - t0
        print(f"ready {load_s!r} {sum(probe.samples)!r} {probe.mean()!r}", flush=True)
        return 0

    setup_walls, setup_scaled, load_walls = measure_setup(args.workload)
    import workloads

    ops = workloads.setup(args.workload)
    plain, traced, tracers = [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    longest = 0.0
    while True:  # whole rounds only, and none that would end past the deadline
        round_start = time.perf_counter()
        gc.collect()  # each round starts from a heap without the last one's garbage
        with SpeedProbe(PROBE_INTERVAL_S) as probe:
            plain.append(run_round(ops, probe))
        if peak_rss_mb is None:  # later rounds repeat the work, so one round sets the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            gc.collect()
            try:
                traced.append(run_round(ops))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > args.seconds:
            break

    rng = random.Random(args.seed)
    data = check_data(ops, rng)
    failures = []
    for rnd in plain + traced:
        failures.extend(check_round(ops, rnd, data, rng))
    problems = [
        "counters differ between rounds" for rnd in plain[1:] if rnd["counters"] != plain[0]["counters"]
    ]
    if args.trace:
        metrics, trace_problems = layer_metrics(ops, plain, traced, tracers, load_walls)
        problems += trace_problems
    else:
        metrics = {
            "wall_s": statistics.median(r["scaled"] for r in plain),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
    attempted = len(ops) * (len(plain) + len(traced))
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        "args": vars(args),
        "result": result,
        "failures": failures,
        "problems": problems,
        "setup_walls": setup_walls,
        "setup_scaled": setup_scaled,
        "rounds": [
            {"traced": i >= len(plain), "wall": r["wall"], "scaled": r["scaled"],
             "probe_mean": r["probe_mean"], "counters": r["counters"],
             "ops": {label: t for (label, _, _, _), t in zip(ops, r["op_seconds"])}}
            for i, r in enumerate(plain + traced)
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1, default=str) + "\n")
    if tracers:
        import spans

        spans.dump(tracers, OUT / f"{stem}-spans.json")
    for message in failures + problems:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
