#!/usr/bin/env python3
"""Benchmark harness for mtfsubdiv.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --record-reference

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process, one thread, closed loop: each item is an
in-process ``mtfsubdiv.cli.main`` call that starts when the previous one
returns.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units come from ``BENCHMARK.json``.

``--trace 0`` cycles through the items until ``--seconds`` have passed and
every item has run at least twice, and reports the end-to-end metrics.
``--trace 1`` runs the item list once untraced and once traced, and
reports the per-layer metrics; its work is fixed, so its counts repeat.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 9
REF_ITERS = 4000
# The reference loop takes about this long on an idle 2-vCPU Linux VM
# (Python 3.11.7); setup_s is reported at that speed.
REF_NOMINAL_S = 0.001


# -- set-up -------------------------------------------------------------


def _import_package():
    """Import mtfsubdiv afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "mtfsubdiv" or m.startswith("mtfsubdiv.")]:
        del sys.modules[name]
    importlib.import_module("mtfsubdiv.cli")  # the package imports every other module
    mtf = sys.modules["mtfsubdiv"]
    if SRC.resolve() not in Path(mtf.__file__).resolve().parents:
        raise SystemExit(f"mtfsubdiv imported from {mtf.__file__}, not from {SRC}")
    return mtf


def set_up(workload: str, seed: int, workdir: Path, tiny: bool = False, repeats: int = SETUP_REPEATS):
    """Import, generate and write the inputs ``repeats`` times.

    Returns the package, the items of the last repeat, and the median
    set-up time in seconds, scaled like ``run_ref`` to a machine on which
    the reference loop takes ``REF_NOMINAL_S``.  The raw median is printed.
    """
    if not (SRC / "mtfsubdiv").is_dir():
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    raw, scaled = [], []
    ref = ref_seconds()
    for _ in range(repeats):
        if workdir.exists():
            shutil.rmtree(workdir)
        t0 = time.perf_counter()
        mtf = _import_package()
        workdir.mkdir(parents=True)
        items = workloads.build(mtf, workload, seed, workdir, tiny)
        secs = time.perf_counter() - t0
        ref_after = ref_seconds()
        raw.append(secs)
        scaled.append(secs / ((ref + ref_after) / 2) * REF_NOMINAL_S)
        ref = ref_after
    print(f"set-up raw seconds (median of {repeats}): {statistics.median(raw):.4f}")
    return mtf, items, statistics.median(scaled)


# -- timing -------------------------------------------------------------


def _ref_loop() -> int:
    acc, seen = 1, set()
    for i in range(REF_ITERS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        seen.add(acc & 1023)
        if acc & 128:
            seen.discard(i & 1023)
    return len(seen)


def ref_seconds() -> float:
    """Current duration of a fixed pure-Python loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _ref_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def run_item(mtf, item):
    """Run one item through the CLI; returns (exit code, stdout, seconds).

    An exception escaping the CLI is returned in place of the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every item starts from a collected heap, as a fresh process would
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mtf.cli.main(list(item.argv))
    except Exception as exc:  # reported as an error of this item
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - t0


class Runner:
    """Runs items, checks them and keeps the per-item samples."""

    def __init__(self, mtf, items, reference: dict | None):
        self.mtf, self.items, self.reference = mtf, items, reference or {}
        self.first: list[tuple | None] = [None] * len(items)
        self.outcomes: list = [None] * len(items)
        self.ref_times: list[list[float]] = [[] for _ in items]
        self.raw_times: list[list[float]] = [[] for _ in items]
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self._ref = ref_seconds()

    def run(self, i: int) -> None:
        item = self.items[i]
        rc, out, secs = run_item(self.mtf, item)
        ref = ref_seconds()
        self.raw_times[i].append(secs)
        self.ref_times[i].append(secs / ((self._ref + ref) / 2))
        self._ref = ref
        self.attempted += 1
        if self.first[i] is None:
            self.first[i] = (rc, out)
            outcome = workloads.check(self.mtf, item, rc, out, self.reference.get(item.label))
            self.outcomes[i] = outcome
            error = outcome.error
        else:
            error = None if self.first[i] == (rc, out) else "output differs from the first run"
        if error:
            self.failed += 1
            self.errors.append(f"{item.label}: {error}")

    def run_ref(self) -> float:
        return sum(statistics.median(t) for t in self.ref_times)

    def raw_seconds(self) -> float:
        return sum(statistics.median(t) for t in self.raw_times)

    def solved_frac(self) -> float:
        done = [o for o in self.outcomes if o is not None]
        return sum(o.solved for o in done) / max(1, sum(o.budgeted for o in done))


def timed_run(mtf, items, reference, seconds: float) -> Runner:
    runner = Runner(mtf, items, reference)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 * len(items) or time.perf_counter() < deadline:
        runner.run(k % len(items))
        k += 1
    return runner


def traced_run(mtf, items, reference):
    untraced = Runner(mtf, items, reference)
    for i in range(len(items)):
        untraced.run(i)
    tracer = tracing.Tracer(mtf)
    traced = Runner(mtf, items, reference)
    traced.first = untraced.first  # the traced output must repeat the untraced one
    tracer.install()
    try:
        for i in range(len(items)):
            traced.run(i)
    finally:
        tracer.uninstall()
    values = tracer.per_layer()
    values["trace.overhead_ref"] = traced.run_ref() - untraced.run_ref()
    return untraced, traced, values


# -- reporting ----------------------------------------------------------


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def result_line(spec_metrics, values: dict, attempted: int, failed: int) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def print_items(runner: Runner) -> None:
    for item, first, raw, ref in zip(runner.items, runner.first, runner.raw_times, runner.ref_times):
        print(f"  {item.label:<28} exit={first[0]} runs={len(raw)} median_s={statistics.median(raw):.4f} median_ref={statistics.median(ref):.2f}")


def bench(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False) -> tuple[str, bool]:
    """Set up and run one workload; returns the result line and correctness."""
    spec = load_spec()
    reference = workloads.load_reference().get(workload, {}) if seed == workloads.DEFAULT_SEED and not tiny else {}
    try:
        mtf, items, setup_s = set_up(workload, seed, workdir, tiny)
        print(f"workload={workload} seed={seed} items={len(items)} reference={'yes' if reference else 'no'}")
        if trace:
            untraced, traced, values = traced_run(mtf, items, reference)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            errors = untraced.errors + traced.errors
            print_items(traced)
            print(f"untraced run_ref={untraced.run_ref():.3f} traced run_ref={traced.run_ref():.3f}")
            line = result_line(spec["per_layer"], values, attempted, failed)
        else:
            runner = timed_run(mtf, items, reference, seconds)
            attempted, failed, errors = runner.attempted, runner.failed, runner.errors
            print_items(runner)
            print(f"raw seconds per item list: {runner.raw_seconds():.3f}")
            values = {
                "setup_s": setup_s,
                "run_ref": runner.run_ref(),
                "solved_frac": runner.solved_frac(),
                "ok_frac": 1 - failed / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            line = result_line(spec["end_to_end"], values, attempted, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"ERROR {e}")
    return line, failed == 0


# -- self-test and reference --------------------------------------------


def self_test(workdir: Path) -> int:
    """One small item per workload, both modes; every metric must print."""
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            line, ok = bench(workload, workloads.DEFAULT_SEED, 0, trace, workdir, tiny=True)
            result = json.loads(line)
            assert ok and result["failed"] == 0 and result["attempted"] >= 1, line
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload}: metrics {sorted(set(got) ^ set(want))} differ"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # every per-layer span metric must name a span the tracer can produce
    tracer = tracing.Tracer(_import_package())
    tracer.install()
    tracer.uninstall()
    keys = tracer.keys
    for m in spec["per_layer"]:
        prefix = m["name"].rsplit(".", 1)[0]
        assert prefix in keys or prefix in ("pipeline", "budget", "trace"), f"no span for {m['name']}"
    print("self-test ok")
    return 0


def record_reference(workdir: Path) -> int:
    """Store exit codes and analyze values of the default seed."""
    out = {}
    try:
        for workload in workloads.WORKLOADS:
            mtf, items, _ = set_up(workload, workloads.DEFAULT_SEED, workdir, repeats=1)
            runner = Runner(mtf, items, None)
            for i in range(len(items)):
                runner.run(i)
            if runner.failed:
                print("\n".join(runner.errors))
                return 1
            out[workload] = {item.label: o.values for item, o in zip(items, runner.outcomes)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    workdir = ROOT / ".bench_build" / "mtfsubdiv-bench"
    if args.self_test:
        return self_test(workdir)
    if args.record_reference:
        return record_reference(workdir)
    if args.workload is None:
        p.error("--workload is required")
    line, ok = bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
