"""The four verification workloads and the correctness gate they must pass.

Each workload calls spectramin's public verification API the way the CLI
and the test-suite do.  The inputs are exhaustive graph classes and fixed
parameter grids, so they are fully determined by their orders; no seed is
involved.  ``calls`` lists the timed API calls of one pass, which the runner
times one by one; ``check`` compares their results against the pinned seed
values and runs outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from spectramin import analytic, verify
from spectramin.formats import from_graph6, to_graph6
from spectramin.graphs import canonical_form
from spectramin.spectral import rho_numeric

# n -> (classes searched, classes in the alpha class ceil(n/2) - 1)
FULLSPACE_PINS = {6: (112, 34), 7: (853, 524), 8: (11_117, 5_863)}
BICYCLIC_PINS = {10: (2_678, 30), 12: (28_908, 171), 14: (300_748, 990)}

# Certified comparisons made by verify_family_grids(pmax), per claim, plus the
# number of family specs in its independence-parity check.
GRID_PAIRS = {
    4: {
        "theta-dumbbell-equal-radius": 8,
        "theta-balance-monotone": 11,
        "figure-eight-balance-monotone": 0,
        "dumbbell-endcycle-balance-monotone": 0,
        "dumbbell-path-swap-strict": 2,
        "dumbbell-vs-figure-eight": 12,
        "dumbbell-path-shortening": 5,
        "family-independence-parity": 74,
    },
    9: {
        "theta-dumbbell-equal-radius": 63,
        "theta-balance-monotone": 590,
        "figure-eight-balance-monotone": 22,
        "dumbbell-endcycle-balance-monotone": 198,
        "dumbbell-path-swap-strict": 42,
        "dumbbell-vs-figure-eight": 252,
        "dumbbell-path-shortening": 140,
        "family-independence-parity": 1194,
    },
}

ANALYTIC_TOL = 1e-9  # numeric cross-check of two independent radius routes
SOLVES_PER_CALL = 25  # analytic solves timed as one call, about a second


@dataclass
class Outcome:
    """What one pass did and how it fared against the gate."""

    classes: int = 0  # classes streamed by the searches
    in_class: int = 0  # classes kept by the alpha filter
    checks: int = 0  # certified comparisons plus analytic solves
    attempted: int = 0  # gate checks made
    failures: list[str] = field(default_factory=list)

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def expect_argmin(self, what: str, graphs, specs: list[str]) -> None:
        """The argmin graphs are, up to isomorphism, the named family members."""
        self.attempted += 1
        got = sorted(canonical_form(g) for g in graphs)
        want = sorted(canonical_form(verify.graph_from_family(s)) for s in specs)
        if got != want:
            self.failures.append(f"{what}: got {[to_graph6(g) for g in graphs]}, want {specs}")


class Search:
    """Minimizer searches with alpha = ceil(n/2) - 1 over the pinned orders:
    ``verify.minimizer`` (full space) or ``verify.minimizer_bicyclic`` (the
    (n+1)-edge class)."""

    takes_workers = True
    work_unit = "classes"

    def __init__(self, name: str, orders: tuple[int, ...], bicyclic: bool):
        self.name = name
        self.orders = orders
        self.pins = BICYCLIC_PINS if bicyclic else FULLSPACE_PINS
        self.bicyclic = bicyclic
        self.params = {
            "call": "minimizer_bicyclic" if bicyclic else "minimizer",
            "n": list(orders),
            "alpha": {n: (n + 1) // 2 - 1 for n in orders},
        }

    def calls(self, workers: int):
        call = verify.minimizer_bicyclic if self.bicyclic else verify.minimizer
        return [partial(call, n, (n + 1) // 2 - 1, workers=workers) for n in self.orders]

    def check(self, results) -> Outcome:
        out = Outcome()
        for res in results:
            searched, class_size = self.pins[res.n]
            out.classes += res.searched
            out.in_class += res.class_size
            out.expect(f"n={res.n} classes searched", res.searched, searched)
            out.expect(f"n={res.n} alpha-class size", res.class_size, class_size)
            out.expect_argmin(f"n={res.n} argmin", res.argmin,
                              [verify.theorem_prediction(res.n)])
            out.expect(f"n={res.n} unresolved", res.unresolved, False)
        return out


class EdgeMinimal:
    """``verify_edge_minimal_pair``: the unfiltered (n+1)-edge class.

    The public report carries no class count, so the pass also keeps the
    ``seen`` figure that ``verify._scan_stream`` returns (one call per
    search, nothing per class).
    """

    takes_workers = False
    work_unit = "classes"

    def __init__(self, name: str, n: int):
        self.name = name
        self.n = n
        self.classes = BICYCLIC_PINS[n][0]
        self.params = {"call": "verify_edge_minimal_pair", "n": [n]}

    def calls(self, workers: int):
        return [self._search]

    def _search(self):
        seen = []
        scan = verify._scan_stream

        def counting_scan(graphs, alpha):
            result = scan(graphs, alpha)
            seen.append(result[0])
            return result

        verify._scan_stream = counting_scan
        try:
            reports = verify.verify_edge_minimal_pair([self.n])
        finally:
            verify._scan_stream = scan
        return reports, seen

    def check(self, results) -> Outcome:
        [(reports, seen)] = results
        out = Outcome(classes=sum(seen))
        k = -(-self.n // 3)
        p = self.n + 1 - 2 * k
        out.expect("classes searched", sum(seen), self.classes)
        out.expect("reports", len(reports), 1)
        for r in reports:
            out.expect(f"{r.claim_id} status", r.status, "pass")
            out.expect_argmin(f"{r.claim_id} argmin", [from_graph6(g6) for g6, _ in r.witnesses],
                              [f"P:{k},{p},{k}", f"B:{k},{p},{k}"])
            out.expect(f"{r.claim_id} gcd equality", "gcd-equality=yes" in r.detail, True)
        return out


class Lemmas:
    """Family lemma grids, descent readings and an analytic-solve sweep."""

    takes_workers = False
    work_unit = "checks"

    def __init__(self, name: str, pmax: int, grid: list[tuple[int, int, int]]):
        self.name = name
        self.pmax = pmax
        self.grid = grid
        self.params = {"calls": ["verify_family_grids", "verify_descent_endpoint_readings",
                                 "rho_analytic"], "pmax": pmax, "analytic_points": len(grid)}
        # reference radii from the eigensolver route, computed once, untimed
        self.reference = [rho_numeric(verify.graph_from_family(f"B:{m},{p},{q}"))
                          for m, p, q in grid]

    def calls(self, workers: int):
        chunks = [self.grid[i:i + SOLVES_PER_CALL]
                  for i in range(0, len(self.grid), SOLVES_PER_CALL)]
        return [partial(verify.verify_family_grids, self.pmax),
                verify.verify_descent_endpoint_readings,
                *(partial(_solve, chunk) for chunk in chunks)]

    def check(self, results) -> Outcome:
        grids, descent, *chunks = results
        solves = [rho for chunk in chunks for rho in chunk]
        out = Outcome()
        pins = GRID_PAIRS[self.pmax]
        for r in grids + descent:
            out.expect(f"{r.claim_id} {r.parameters} status", r.status, "pass")
        for r in grids:
            size = r.parameters.get("pairs", r.parameters.get("specs"))
            out.expect(f"{r.claim_id} size", size, pins.get(r.claim_id))
        out.expect("grid claims", sorted(r.claim_id for r in grids), sorted(pins))
        for (m, p, q), rho, ref in zip(self.grid, solves, self.reference):
            out.expect(f"rho_analytic({m},{p},{q}) within {ANALYTIC_TOL} of eigvalsh",
                       abs(rho - ref) <= ANALYTIC_TOL, True)
        comparisons = sum(r.parameters.get("pairs", 0) for r in grids) + len(descent)
        out.checks = comparisons + len(solves)
        return out


def _solve(grid):
    return [analytic.rho_analytic(m, p, q).rho for m, p, q in grid]


def run(wl, workers: int) -> list:
    """One pass without reference readings: every call of ``wl`` in order."""
    return [call() for call in wl.calls(workers)]


def _sweep(lo: int, hi: int, pmax: int) -> list[tuple[int, int, int]]:
    return [(m, p, q) for m in range(lo, hi + 1) for q in range(lo, hi + 1)
            for p in range(1, pmax + 1)]


def build(name: str, smoke: bool = False):
    """The workload called ``name``; ``smoke`` gives its seconds-long variant."""
    i = 0 if smoke else 1
    if name == "fullspace":
        return Search(name, [(6, 7), (7, 8)][i], bicyclic=False)
    if name == "bicyclic-alpha":
        return Search(name, [(10,), (10, 12, 14)][i], bicyclic=True)
    if name == "edge-minimal":
        return EdgeMinimal(name, (10, 12)[i])
    if name == "lemmas":
        grids = [[(3, 1, 3), (3, 3, 3), (4, 2, 5)], _sweep(3, 7, 7)]
        return Lemmas(name, (4, 9)[i], grids[i])
    raise KeyError(name)
