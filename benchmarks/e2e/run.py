"""End-to-end benchmark: four workloads from test campaign to verdict.

Run from the repository root (no install or ``PYTHONPATH`` needed):

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Without ``--workload`` every workload runs, each for ``--seconds``.  Each
rep is one op in a fresh child interpreter (``child.py``), one child at
a time.  Reps repeat until the time budget is spent (at least
``MIN_REPS``); every metric is the median over reps.  The untraced run
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace``
alternates untraced and traced reps and reports the per-layer metrics,
writing them and a Chrome trace per workload to ``results/``.

Every op's outputs are checked (see ``workloads.py``); a failed check
fails the op and the command exits 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--compare A B`` prints each (workload, end-to-end metric) pair of two
result sets written with ``--out`` and exits 1 when a median moved by
more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"

#: untraced reps per workload whatever the time budget (setup_s and the
#: throughput are medians over them)
MIN_REPS = 3
MAX_REPS = 40
CHILD_TIMEOUT_S = 120
#: a traced rep fails when more of its wall time than this sits in no layer
UNATTRIBUTED_LIMIT = 0.05
#: children stay single-threaded: no native thread pools either
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

#: seconds :func:`calibrate` takes at the reference host speed (about its
#: time on a quiet 2-vCPU x86-64 VM with Python 3.11).  Times are
#: reported in reference seconds: wall seconds * CAL_REF_S / cal_s, with
#: cal_s the median of every calibration of the run.
CAL_REF_S = 0.125


def calibrate() -> float:
    """Seconds a fixed, library-free Python workload takes right now.

    On a shared VM the host's speed drifts by up to 1.6x within minutes,
    and interpreter-bound code slows down with it.  This uses only the
    interpreter and the standard library, so no change to ``repro`` can
    move it.  It runs in this process, between children, so it adds
    nothing to a child's time or memory.
    """
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFF
    parts = []
    for i in range(40_000):
        text = "%d:%s" % (i, hex(i * 2654435761 & 0xFFFFFFFF))
        parts.append(text.split(":")[1].upper())
    "|".join(sorted(parts))
    json.loads(json.dumps({str(i): [i, 2 * i, "x" * (i % 7)]
                           for i in range(10_000)}))
    return time.perf_counter() - start


#: end-to-end metric -> its value for one untraced rep, given the run's
#: reference seconds per wall second
E2E = {
    "setup_s": lambda rep, scale: rep["setup_s"] * scale,
    "iters_per_s": lambda rep, scale: (rep["outputs"]["iterations"]
                                       / (rep["op_s"] * scale)),
    "peak_rss_mb": lambda rep, scale: rep["peak_rss_mb"],
}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def summary(values, unit: str) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


# -- one rep -------------------------------------------------------------------


def run_child(name: str, inputs: dict, traced: bool, trace_path=None) -> dict:
    """Run one rep in a fresh interpreter and wait for it to end.

    :func:`calibrate` runs just before and just after the child; both
    times are the rep's ``cal_s``.
    """
    request = {"workload": name, "inputs": inputs, "trace": traced,
               "trace_path": str(trace_path) if trace_path else None}
    begin = time.monotonic()
    cal_before = calibrate()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=str(ROOT), env=dict(os.environ, **CHILD_ENV))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "wall": time.monotonic() - begin,
                "error": "rep timed out after %d s" % CHILD_TIMEOUT_S}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "wall": time.monotonic() - begin,
                "error": "rep exited %d: %s" % (proc.returncode, tail[0])}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("setup_done") - started
    record["cal_s"] = [cal_before, calibrate()]
    record["traced"] = traced
    # the whole cost of the rep, calibration included, for time budgeting
    record["wall"] = time.monotonic() - begin
    return record


def rep_problems(workload, rep: dict, pin, reference) -> list:
    """Everything wrong with one rep; empty when the op succeeded."""
    if "error" in rep:
        return [rep["error"]]
    problems = workload.verify(rep["outputs"], pin)
    if reference is not None and workload.pin_view(rep["outputs"]) != reference:
        problems.append("outputs differ from the first rep's on the same inputs")
    if rep["traced"]:
        problems += rep["nesting"][:3]
        unattributed = rep["layers"]["op.unattributed_frac"][0]
        if unattributed >= UNATTRIBUTED_LIMIT:
            problems.append("%.1f%% of the traced op is in no layer (limit "
                            "%.0f%%)" % (100 * unattributed,
                                         100 * UNATTRIBUTED_LIMIT))
    return problems


# -- one workload --------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, pins: dict) -> dict:
    """Prepare the inputs, run reps until ``seconds`` are spent, and
    aggregate them (see :func:`aggregate`)."""
    import workloads

    workload = workloads.WORKLOADS[name]
    pin = pins["workloads"].get(name) if seed == pins["seed"] else None
    trace_path = RESULTS / ("%s.trace.json" % name) if trace else None
    if trace:
        RESULTS.mkdir(exist_ok=True)
    started = time.monotonic()
    calibrate()  # the first call in a process runs slow; discard it
    reps = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=str(HERE)) as work:
        inputs = workload.prepare(seed, work)
        while len(reps) < MAX_REPS:
            untraced = sum(1 for r in reps if not r["traced"])
            traced = len(reps) - untraced
            enough = untraced >= (1 if trace else MIN_REPS) \
                and (traced >= 1 or not trace)
            if enough:
                typical = statistics.median(r["wall"] for r in reps)
                if time.monotonic() - started + typical > seconds:
                    break
            next_traced = trace and traced < untraced
            reps.append(run_child(name, inputs, next_traced,
                                  trace_path if next_traced else None))
            if "error" in reps[-1]:
                break  # a crashed or hung child fails the run; stop early
    result = aggregate(workload, reps, pin, spec)
    result.update(seed=seed, seconds=seconds, trace=trace,
                  wall_s=time.monotonic() - started)
    if "layers" in result:
        (RESULTS / ("%s.layers.json" % name)).write_text(json.dumps(
            {"workload": name, "seed": seed,
             "traced_reps": result["traced_reps"],
             "missing": result["trace_missing"],
             "metrics": {k: {"value": v["median"], "unit": v["unit"]}
                         for k, v in sorted(result["layers"].items())}},
            indent=1) + "\n")
    return result


def aggregate(workload, reps: list, pin, spec: dict) -> dict:
    """Check every rep and reduce the successful ones to medians.

    Returns ``attempted``/``failed`` op counts, the distinct
    ``problems``, the first rep's ``pin`` view, the end-to-end
    ``metrics`` of ``spec`` over untraced reps, unbounded ``extras``
    and, when there are traced reps, the per-layer ``layers``.  Each
    metric is a :func:`summary`.
    """
    reference = None
    for rep in reps:
        rep["problems"] = rep_problems(workload, rep, pin, reference)
        if reference is None and "outputs" in rep:
            reference = workload.pin_view(rep["outputs"])
    ok = [r for r in reps if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    failed = len(reps) - len(ok)

    result = {"attempted": len(reps), "failed": failed,
              "problems": sorted({p for r in reps for p in r["problems"]}),
              "pin": reference, "metrics": {}, "extras": {}}
    if plain:
        cal_s = statistics.median(c for r in plain for c in r["cal_s"])
        for metric in spec["end_to_end"]:
            value = E2E[metric["name"]]
            result["metrics"][metric["name"]] = summary(
                [value(r, CAL_REF_S / cal_s) for r in plain], metric["unit"])
            if metric["unit"] in ("s", "1/s"):  # time-based: also raw
                result["extras"][metric["name"] + ".wall"] = summary(
                    [value(r, 1.0) for r in plain], metric["unit"])
        result["extras"]["cal_s"] = summary(
            [c for r in plain for c in r["cal_s"]], "s")
        extras = [workload.extras(r["outputs"], r["op_s"]) for r in plain]
        for key, (_, unit) in extras[0].items():
            result["extras"][key] = summary([e[key][0] for e in extras], unit)
    result["extras"]["error_rate"] = summary(
        [failed / len(reps) if reps else 1.0], "frac")

    traced_ok = [r for r in ok if r["traced"]]
    if traced_ok:
        layers = {}
        for key, (_, unit) in traced_ok[0]["layers"].items():
            values = [r["layers"][key][0] for r in traced_ok
                      if key in r["layers"]]
            layers[key] = summary(values, unit)
        if plain:
            overhead = (statistics.median(r["op_s"] for r in traced_ok)
                        / statistics.median(r["op_s"] for r in plain)) - 1.0
            layers["trace_overhead_frac"] = summary([overhead], "frac")
        result["layers"] = layers
        result["traced_reps"] = len(traced_ok)
        result["trace_missing"] = traced_ok[0]["missing"]
    return result


# -- output --------------------------------------------------------------------


def _fmt(value: float) -> str:
    return "%.6g" % value


def print_workload(name: str, result: dict, spec: dict) -> None:
    print("== %s  seed %d  %d ops, %d failed, %.1f s"
          % (name, result["seed"], result["attempted"], result["failed"],
             result["wall_s"]))
    for problem in result["problems"]:
        print("  FAILED: %s" % problem)
    for metric in spec["end_to_end"]:
        s = result["metrics"].get(metric["name"])
        if s is None:
            continue
        print("  %-22s %12s %-5s q1 %s  q3 %s  n %d  (%s is better, bound "
              "%.0f%%)" % (metric["name"], _fmt(s["median"]), s["unit"],
                           _fmt(s["q1"]), _fmt(s["q3"]), s["n"],
                           metric["better"], 100 * metric["bound"]))
    for key, s in sorted(result["extras"].items()):
        print("  %-22s %12s %-5s q1 %s  q3 %s  n %d  (not bounded)"
              % (key, _fmt(s["median"]), s["unit"], _fmt(s["q1"]),
                 _fmt(s["q3"]), s["n"]))
    if "layers" in result:
        print("  per-layer (traced, medians over %d reps):"
              % result["traced_reps"])
        for key, s in sorted(result["layers"].items()):
            print("    %-44s %12s %s" % (key, _fmt(s["median"]), s["unit"]))
        if result["trace_missing"]:
            print("  not traced (target gone): %s"
                  % ", ".join(result["trace_missing"]))


def final_line(results: dict, spec: dict, trace: bool) -> dict:
    """The machine-readable last line of standard output."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for name, result in results.items():
        table = result.get("layers", {}) if trace else result["metrics"]
        for metric in wanted:
            s = table.get(metric["name"])
            if s is None:
                continue
            key = metric["name"] if len(results) == 1 \
                else "%s.%s" % (name, metric["name"])
            metrics[key] = {"value": s["median"], "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    complete = len(metrics) == len(wanted) * len(results)
    return {"correct": failed == 0 and attempted > 0 and complete,
            "attempted": attempted, "failed": failed, "metrics": metrics}


# -- comparing two result sets -------------------------------------------------


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print both medians and quartiles per (workload, metric); 1 when a
    median moved by more than the metric's bound."""
    sets = [json.loads(pathlib.Path(p).read_text())["workloads"]
            for p in (path_a, path_b)]
    print("%-20s %-14s %-36s %-36s %8s %6s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound"))
    bad = 0
    for name in sorted(set(sets[0]) | set(sets[1])):
        for metric in spec["end_to_end"]:
            cells = [s.get(name, {}).get("metrics", {}).get(metric["name"])
                     for s in sets]
            if None in cells:
                print("%-20s %-14s missing from %s" % (
                    name, metric["name"], "A" if cells[0] is None else "B"))
                bad += 1
                continue
            a, b = cells
            change = (b["median"] - a["median"]) / a["median"]
            over = abs(change) > metric["bound"]
            bad += over
            print("%-20s %-14s %-36s %-36s %+7.1f%% %5.0f%%%s" % (
                name, metric["name"],
                "%s [%s, %s]" % (_fmt(a["median"]), _fmt(a["q1"]), _fmt(a["q3"])),
                "%s [%s, %s]" % (_fmt(b["median"]), _fmt(b["q1"]), _fmt(b["q3"])),
                100 * change, 100 * metric["bound"], "  DIFFERS" if over else ""))
    print("%d pair(s) differ by more than their bound" % bad)
    return 1 if bad else 0


# -- entry point ---------------------------------------------------------------


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: test campaign to verdict.")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1, the pinned seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget per workload, set-up included")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer traced run")
    parser.add_argument("--out", help="write the result set to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets written with --out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: library sources not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pins = load_pins()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), spec, pins)
        print_workload(name, results[name], spec)
        sys.stdout.flush()
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({
            "schema": "mtracecheck-e2e/1", "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine()},
            "workloads": results}, indent=1) + "\n")
    line = final_line(results, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
