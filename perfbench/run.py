"""Benchmark of spectramin's verification runs.

Run from the repository root:

    python3 perfbench/run.py --workload fullspace --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all      # every end-to-end metric, all workloads
    python3 perfbench/run.py --smoke             # the benchmark's own test, in seconds

``--trace 0`` repeats the workload, each pass through the public API of
``spectramin.verify`` with ``min(2, nproc)`` workers, for about ``--seconds``
seconds, and reports the end-to-end metrics of BENCHMARK.json.  Each pass is
checked against the pinned class counts, alpha-class sizes, certified
argmins and report statuses before its time is kept.

A shared host's speed can drift by a quarter or more over minutes as other
tenants load it, so the timed metrics are normalised: every API call is
bracketed by readings of a fixed pure-Python reference loop, and each call's
wall time is divided by the mean of the readings on either side.  ``wall_ref`` is a
pass's time in units of that loop.  ``setup_s`` is scaled the same way, to
seconds on a machine that runs the loop in ``REF_NOMINAL_S``.  The raw
times are kept in the run record.

``--trace 1`` makes one pass of each kind: untraced with 2 workers, untraced
with 1 worker, and traced with 1 worker, all gated the same way.  It reports
the per-layer metrics of BENCHMARK.json and writes the spans to
``.bench_results/``.

The inputs are exhaustive graph classes fixed by their orders, so ``--seed``
is recorded and selects nothing.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (gate checks) and
``metrics``.  The exit code is 0 when every check passed, 1 when one failed
and 2 when the package sources cannot be found.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 9
REF_LOOP = 200_000  # iterations of the reference loop, about 20 ms
REF_SAMPLES = 5  # loops per reading; the reading is their median
REF_NOMINAL_S = 0.02  # one reference loop at nominal speed: setup_s is scaled to it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import spectramin from this checkout's ``src`` and nowhere else."""
    if not (SRC / "spectramin" / "__init__.py").is_file():
        _fail_setup(f"no package sources at {SRC / 'spectramin'}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import spectramin

    if Path(spectramin.__file__).resolve().parent != (SRC / "spectramin").resolve():
        _fail_setup(f"imported spectramin from {spectramin.__file__}, not from {SRC}")
    return spectramin


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measurements


def setup_seconds() -> tuple[list[float], list[float]]:
    """Interpreter start to ``import spectramin`` done, in fresh processes.

    Returns the raw probe times and the same times scaled to ``REF_NOMINAL_S``
    by the mean of the reference readings taken on either side of each probe.
    """
    code = "import time, spectramin; print(time.monotonic())"
    raw, scaled = [], []
    ref = reference_seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        dt = float(proc.stdout.strip()) - t0
        after = reference_seconds()
        raw.append(dt)
        scaled.append(dt * REF_NOMINAL_S / ((ref + after) / 2))
        ref = after
    return raw, scaled


def _reference_loop() -> int:
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return s


def reference_seconds() -> float:
    """One reading of the machine's current speed: the median time of a
    fixed pure-Python loop that shares no code with spectramin."""
    samples = []
    for _ in range(REF_SAMPLES):
        t0 = time.perf_counter()
        _reference_loop()
        samples.append(time.perf_counter() - t0)
    return median(samples)


_barrier = None  # set in each reference process


def _join_barrier(barrier) -> None:
    global _barrier
    _barrier = barrier


def _reading_together(_) -> float:
    _barrier.wait(timeout=60)
    return reference_seconds()


class Reference:
    """Reference readings on as many processes at once as the workload's
    pool has workers, so that a reading sees every core the pass used.

    A barrier starts the processes' loops together: two loops run one after
    the other read faster than two at once on cores that share hardware.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self.readings = []
        self.pool = None
        if processes > 1:
            ctx = multiprocessing.get_context("fork")
            self.pool = ctx.Pool(processes, _join_barrier, (ctx.Barrier(processes),))

    def read(self) -> float:
        if self.pool is None:
            reading = reference_seconds()
        else:
            reading = mean(self.pool.map(_reading_together, range(self.processes),
                                         chunksize=1))
        self.readings.append(reading)
        return reading

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
            self.pool = None


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed_pass(wl, workers: int, totals, reference: Reference, ref: float):
    """One gated pass, each call timed between two reference readings.

    ``ref`` is the reading taken just before the pass.  Returns the raw wall
    seconds, the normalised wall (sum over calls of call seconds over the
    mean of its two readings), the last reading and the outcome.
    """
    results, wall, norm = [], 0.0, 0.0
    for call in wl.calls(workers):
        t0 = time.perf_counter()
        results.append(call())
        dt = time.perf_counter() - t0
        after = reference.read()
        wall += dt
        norm += dt / ((ref + after) / 2)
        ref = after
    outcome = wl.check(results)
    totals["attempted"] += outcome.attempted
    totals["failures"].extend(outcome.failures)
    return wall, norm, ref, outcome


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    k = len(samples)
    if k < 11:
        return None
    return {"percentile": 100.0 * (k - 10) / k, "value": sorted(samples)[k - 11]}


def measure_end_to_end(wl, seconds: float, workers: int, totals) -> dict:
    """Gated passes for about ``seconds``: a pass starts only while it is
    expected to end in time, and the first always runs."""
    walls, norms, spans = [], [], []
    reference = Reference(workers if wl.takes_workers else 1)
    try:
        reference.read()  # warms the loop; the reading is dropped
        ref = reference.read()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wall, norm, ref, outcome = timed_pass(wl, workers, totals, reference, ref)
            if outcome.failures:
                break
            walls.append(wall)
            norms.append(norm)
            spans.append(time.perf_counter() - t0)
            if time.perf_counter() - start + median(spans) > seconds:
                break
        # before the reference processes and setup probes, which are children too
        rss = peak_rss_mib()
    finally:
        reference.close()
    if not walls:
        return {"walls": []}
    setups, scaled_setups = setup_seconds()
    work = getattr(outcome, wl.work_unit)
    return {
        "walls": walls,
        "wall_s": median(walls),
        "wall_tail": tail(walls),
        "wall_refs": norms,
        "readings": reference.readings,
        "wall_ref_tail": tail(norms),
        "work_unit": wl.work_unit,
        "work_per_pass": work,
        "setups": setups,
        "scaled_setups": scaled_setups,
        "metrics": {
            "wall_ref": median(norms),
            "work_per_ref": median(work / n for n in norms),
            "setup_s": median(scaled_setups),
            "peak_rss_mb": rss,
        },
    }


def measure_layers(wl, workers: int, totals, spans_path: Path | None) -> dict:
    import tracing
    import workloads

    walls = {}
    reference = Reference(1)
    if wl.takes_workers and workers > 1:
        walls["untraced_2"], *_ = timed_pass(wl, workers, totals, reference, reference.read())
    walls["untraced_1"], *_ = timed_pass(wl, 1, totals, reference, reference.read())
    walls.setdefault("untraced_2", walls["untraced_1"])  # no workers parameter
    tracer = tracing.Tracer(wl.name)
    with tracing.instrumented(tracer):
        t0 = time.perf_counter()
        results = workloads.run(wl, 1)
        walls["traced_1"] = time.perf_counter() - t0
    outcome = wl.check(results)
    totals["attempted"] += outcome.attempted
    totals["failures"].extend(outcome.failures)
    if spans_path is not None:
        tracer.write(str(spans_path))
    return {
        "walls": walls,
        "spans": len(tracer.start),
        "span_summary": tracer.summary(),
        "counters": dict(tracer.counts),
        "metrics": tracing.layer_metrics(tracer, outcome.in_class, walls),
    }


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _blas() -> str | None:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return None


def provenance(spectramin, args, wl, workers: int) -> dict:
    import numpy as np

    return {
        "spectramin_version": spectramin.__version__,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workers": workers,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": wl.name,
        "parameters": wl.params,
        "seed": args.seed,
        "seed_selects": "nothing: the inputs are exhaustive and fixed by their orders",
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _print_metrics(spec_metrics: list[dict], values: dict, body: dict) -> None:
    for m in spec_metrics:
        note = f"  ({body['work_unit']} per ref)" if m["name"] == "work_per_ref" else ""
        print(f"  {m['name']:<32} {values[m['name']]:>16.6g} {m['unit']}{note}")
    if "setups" in body:
        print(f"  {'wall_s (raw, not normalised)':<32} {body['wall_s']:>16.6g} s")
        print(f"  {'passes':<32} {len(body['walls']):>16d}")


def run_one(spectramin, args) -> int:
    import workloads

    spec = _load_spec()
    wl = workloads.build(args.workload)
    workers = min(2, os.cpu_count() or 1)
    totals = {"attempted": 0, "failures": []}
    t0 = time.perf_counter()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        kind = spec["per_layer"]
        body = measure_layers(wl, workers, totals, RESULTS / f"{stem}-spans.npz")
    else:
        kind = spec["end_to_end"]
        body = measure_end_to_end(wl, args.seconds, workers, totals)
    failed = len(totals["failures"])
    correct = failed == 0 and "metrics" in body
    record = {"provenance": provenance(spectramin, args, wl, workers),
              "elapsed_s": time.perf_counter() - t0,
              "attempted": totals["attempted"], "failures": totals["failures"], **body}
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for f in totals["failures"]:
        print(f"GATE FAILED {wl.name}: {f}", file=sys.stderr)
    metrics = {}
    if correct:
        values = body["metrics"]
        mismatch = {m["name"] for m in kind} ^ set(values)
        if mismatch:
            raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
        print(f"{wl.name} seed={args.seed} trace={args.trace} workers={workers} "
              f"fail_ratio={failed}/{totals['attempted']}")
        _print_metrics(kind, values, body)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in kind}
    print(json.dumps({"correct": correct, "attempted": max(totals["attempted"], 1),
                      "failed": failed if correct else max(failed, 1), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of all metrics."""
    spec = _load_spec()
    merged, attempted, failed, ok = {}, 0, 0, True
    for w in spec_workloads(spec):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                       "failed": 1, "metrics": {}}
        ok = ok and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{w}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if ok else 1


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's own test on small inputs")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    spectramin = _import_package()
    if args.smoke:
        import smoke

        return smoke.main(_load_spec())
    if args.workload == "all":
        return run_all(args)
    if args.workload not in spec_workloads(_load_spec()):
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(spectramin, args)


if __name__ == "__main__":
    sys.exit(main())
