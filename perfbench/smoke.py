"""The benchmark's own test: every workload on small inputs, in seconds.

It runs each workload's smoke variant through the same end-to-end and traced
measurements as a real run and fails when a gate check fails, when a metric
is missing or unnamed in BENCHMARK.json, when a layer metric has no
recorded prediction, when a wrapper never fires, or when a corrupted result
gets through the gate.  Run it with ``python3 perfbench/run.py --smoke``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import run
import tracing
import workloads

PREDICTIONS = Path(__file__).with_name("predictions.json")


def _corrupted(wl, results) -> list:
    """Copies of a passing result that the gate must reject."""
    if isinstance(wl, workloads.Search):
        first = results[0]
        return [[dataclasses.replace(first, searched=first.searched + 1)] + results[1:],
                [dataclasses.replace(first, unresolved=True)] + results[1:],
                [dataclasses.replace(first, argmin=first.argmin[:-1])] + results[1:]]
    if isinstance(wl, workloads.EdgeMinimal):
        [(reports, seen)] = results
        return [[(reports, [seen[0] + 1])],
                [([dataclasses.replace(reports[0], status="fail")], seen)]]
    grids, descent, solves, *rest = results
    return [[grids, descent, [solves[0] + 1e-6] + solves[1:], *rest],
            [[dataclasses.replace(grids[0], status="fail")] + grids[1:], descent, solves, *rest]]


def main(spec: dict) -> int:
    problems = []
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    with open(PREDICTIONS) as fh:
        predicted = {p["layer_metric"] for p in json.load(fh)["predictions"]}
    if per_layer - predicted:
        problems.append(f"layer metrics without a prediction: {sorted(per_layer - predicted)}")

    fired = set()
    for name in (w["name"] for w in spec["workloads"]):
        wl = workloads.build(name, smoke=True)
        totals = {"attempted": 0, "failures": []}
        e2e = run.measure_end_to_end(wl, 0.01, 2, totals)
        layers = run.measure_layers(wl, 2, totals, None)
        problems += [f"{name}: {f}" for f in totals["failures"]]
        if set(e2e.get("metrics", {})) != end_to_end:
            problems.append(f"{name}: end-to-end metrics {sorted(e2e.get('metrics', {}))}")
        if set(layers["metrics"]) != per_layer:
            problems.append(f"{name}: layer metrics differ from BENCHMARK.json")
        fired |= set(layers["span_summary"]) | {k for k, v in layers["counters"].items() if v}

        results = workloads.run(wl, 1)
        for bad in _corrupted(wl, results):
            if not wl.check(bad).failures:
                problems.append(f"{name}: the gate passed a corrupted result")
        print(f"smoke {name}: {totals['attempted']} checks, {layers['spans']} spans")

    wanted = {n for _, _, n in tracing.SPANNED + tracing.COUNTED + tracing.GENERATORS}
    # no comparison is unresolved at seed, so that verdict is left out
    wanted |= {"enumeration.classes", "spectral.numeric_graphs", "verify.band_candidates",
               "spectral.verdict_less", "spectral.verdict_greater", "spectral.verdict_equal"}
    if wanted - fired:
        problems.append(f"wrappers or counters that never fired: {sorted(wanted - fired)}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0
