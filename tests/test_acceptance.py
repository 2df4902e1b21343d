"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success so a plain ``pytest -s`` run reads
as a checklist.  The long exhaustive sweeps (criteria 1 and 3) are at the
end; the whole module is the release gate and is expected to stay green.
"""

import os
import random
from fractions import Fraction

import pytest

from spectramin.analytic import rho_analytic
from spectramin.enumeration import enumerate_connected
from spectramin.formats import to_graph6
from spectramin.graphs import (
    Graph,
    build_bicyclic,
    build_cycle,
    canonical_form,
    cut_edges,
    double_fork_tree,
    independence_number,
    internal_paths,
    is_connected,
    predicted_independence,
    spec_B,
    spec_C,
    spec_P,
)
from spectramin.spectral import (
    compare_rho_certified,
    perron_pair,
    rho_bracket,
    rho_numeric,
)
from spectramin.transforms import shift_neighbors, split_vertex, subdivide_internal
from spectramin.verify import (
    graph_from_family,
    minimizer,
    minimizer_bicyclic,
    theorem_prediction,
    verify_family_grids,
    verify_small_order_minimizers,
)

WORKERS = min(2, os.cpu_count() or 1)


def _ok(msg: str) -> None:
    print(f"PASS  {msg}")


def _argmin_is(res, families: list[str]) -> bool:
    want = sorted(canonical_form(graph_from_family(s)) for s in families)
    got = sorted(canonical_form(g) for g in res.argmin)
    return want == got


def _connected_cache(n: int) -> list[Graph]:
    if n not in _connected_cache.data:
        _connected_cache.data[n] = list(enumerate_connected(n))
    return _connected_cache.data[n]


_connected_cache.data = {}


# -- criterion 2 (fast, so it runs first) -----------------------------------


class TestCriterion2SmallOrders:
    def test_remark_cases(self):
        for n, alpha, family in [(3, 1, "K:3"), (4, 1, "K:4"), (5, 2, "C:5"), (6, 2, "B:3,1,3")]:
            res = minimizer(n, alpha)
            assert _argmin_is(res, [family]), (n, alpha)
            assert not res.unresolved
        reports = verify_small_order_minimizers()
        assert all(r.status == "pass" for r in reports)
        _ok("criterion 2: order 3..6 minimizers are K_3, K_4, C_5, B(3,1,3)")


# -- criterion 5: radius floor ------------------------------------------------


class TestCriterion5RadiusFloor:
    def test_cycles_are_exactly_two(self):
        for n in range(3, 51):
            rho = perron_pair(build_cycle(n)).rho
            assert abs(rho - 2.0) <= 1e-10, n
        _ok("criterion 5a: rho(C_n) = 2 +- 1e-10 for n in [3, 50]")

    def test_double_fork_is_exactly_two(self):
        for n in range(6, 31):
            rho = perron_pair(double_fork_tree(n)).rho
            assert abs(rho - 2.0) <= 1e-10, n
        _ok("criterion 5b: rho of the double-fork tree = 2 +- 1e-10 for n in [6, 30]")

    def test_non_tree_floor_up_to_8(self):
        checked = 0
        for n in range(3, 9):
            cyc = canonical_form(build_cycle(n))
            for g in _connected_cache(n):
                if g.edge_count < g.n:
                    continue
                checked += 1
                r = rho_numeric(g)
                assert r >= 2.0 - 1e-10, (n, g.edges())
                if r <= 2.0 + 1e-10:
                    assert canonical_form(g) == cyc, (n, g.edges())
        assert checked > 10000
        _ok(f"criterion 5c: rho >= 2 on all {checked} connected non-trees n <= 8, "
            "equality exactly on cycles")


# -- criterion 6: cross-method agreement --------------------------------------


class TestCriterion6CrossMethod:
    def test_grid_441(self):
        from spectramin.spectral import full_spectrum

        worst_pm = 0.0
        worst_br = 0.0
        count = 0
        for m in range(3, 10):
            for q in range(3, 10):
                for p in range(1, 10):
                    count += 1
                    sol = rho_analytic(m, p, q)
                    g, _ = build_bicyclic(spec_B(m, p, q))
                    rho_p = perron_pair(g).rho
                    worst_pm = max(worst_pm, abs(sol.rho - rho_p))
                    br = rho_bracket(g, Fraction(1, 10**10))
                    worst_br = max(worst_br, abs(float(br.midpoint()) - rho_p))
                    sp = full_spectrum(g)
                    assert sp[0] - sp[1] > 1e-10  # top eigenvalue stays simple
        assert count == 441
        assert worst_pm <= 1e-9
        assert worst_br <= 1e-9
        _ok(f"criterion 6: analytic/power/bracket radii agree on 441 dumbbells "
            f"(worst {worst_pm:.2e} / {worst_br:.2e}); top eigenvalue simple throughout")


# -- criterion 7: certified family grid suite ---------------------------------


class TestCriterion7FamilyGrids:
    def test_all_grid_reports_pass(self):
        reports = verify_family_grids(9)
        for r in reports:
            assert r.status == "pass", r.to_text()
        pairs = sum(r.parameters.get("pairs", 0) for r in reports)
        _ok(f"criterion 7: family grid suite (params <= 9) zero failures "
            f"across {pairs} certified comparisons")

    def test_equalities_are_gcd_certified(self):
        # spot-check the two exact-equality shapes directly
        for m, p in [(3, 1), (9, 9), (5, 7)]:
            a = build_bicyclic(spec_P(m, p, m))[0]
            b = build_bicyclic(spec_B(m, p, m))[0]
            assert compare_rho_certified(a, b) == "equal"
        for k in (3, 5, 9):
            a = build_bicyclic(spec_B(k, k, k))[0]
            b = build_bicyclic(spec_B(k, k - 1, k + 2))[0]
            assert compare_rho_certified(a, b) == "equal"
        _ok("criterion 7: equal-radius identities certified by polynomial gcd")


# -- criterion 8: independence parity formulas --------------------------------


class TestCriterion8IndependenceFormulas:
    def test_full_parameter_grid(self):
        checked = 0
        for m in range(3, 10):
            for q in range(3, 10):
                for spec in [spec_C(m, q)] + [spec_B(m, p, q) for p in range(1, 10)]:
                    g, _ = build_bicyclic(spec)
                    assert independence_number(g) == predicted_independence(spec), spec
                    checked += 1
        for m in range(1, 10):
            for p in range(1, 10):
                for q in range(1, 10):
                    if (m, p, q).count(1) > 1:
                        continue
                    spec = spec_P(m, p, q)
                    g, _ = build_bicyclic(spec)
                    assert independence_number(g) == predicted_independence(spec), spec
                    checked += 1
        _ok(f"criterion 8: parity formulas match exact search on {checked} family members")


# -- criterion 9: transformation property suite --------------------------------


class TestCriterion9Transformations:
    def test_edge_deletion_sweep(self):
        rng = random.Random(31)
        checked = 0
        certified = 0
        for n in range(2, 9):
            for g in _connected_cache(n):
                r = rho_numeric(g)
                for e in g.edges():
                    h = g.without_edge(*e)
                    # compare against the largest component radius when the
                    # deletion disconnects (interlacing supports both views)
                    comps = _component_graphs(h)
                    hr = max(rho_numeric(c) for c in comps)
                    assert hr < r - 1e-12 or (r < 1e-12 and hr <= r), (n, g.edges(), e)
                    checked += 1
                    if rng.random() < 0.0005 and is_connected(h):
                        assert compare_rho_certified(h, g) == "less"
                        certified += 1
        assert certified >= 20
        _ok(f"criterion 9a: edge deletion strictly lowers the radius "
            f"({checked} deletions, n <= 8; {certified} re-proved exactly)")

    def test_subdivision_sweep(self):
        checked = 0
        exempt = 0
        for n in range(4, 9):
            fork = canonical_form(double_fork_tree(n)) if n >= 6 else None
            for g in _connected_cache(n):
                edges = {
                    (min(a, b), max(a, b))
                    for p in internal_paths(g)
                    for a, b in zip(p, p[1:])
                }
                if not edges:
                    continue
                if fork is not None and canonical_form(g) == fork:
                    exempt += 1
                    r = rho_numeric(g)
                    assert abs(r - 2.0) <= 1e-10
                    sub = g.without_edge(*min(edges)).with_vertex(list(min(edges)))
                    assert abs(rho_numeric(sub) - 2.0) <= 1e-10
                    continue
                r = rho_numeric(g)
                for e in edges:
                    out = subdivide_internal(g, e)
                    assert rho_numeric(out) < r - 1e-12, (n, g.edges(), e)
                    checked += 1
        assert exempt == 3  # the double fork exists for n = 6, 7, 8
        _ok(f"criterion 9b: internal-path subdivision strictly lowers the radius "
            f"({checked} subdivisions, double fork exempt and flat at 2)")

    def test_neighbor_shift_500_certified(self):
        rng = random.Random(20250809)
        done = 0
        while done < 500:
            n = rng.randint(4, 9)
            g = _random_connected(rng, n, rng.choice([0.3, 0.45, 0.6]))
            x = perron_pair(g).perron
            u, v = rng.sample(range(n), 2)
            if x[u] < x[v] + 1e-9:  # precondition must hold with margin
                continue
            pool = [w for w in g.neighbors(v) if w != u and not g.has_edge(u, w)]
            if not pool:
                continue
            subset = rng.sample(pool, rng.randint(1, len(pool)))
            out = shift_neighbors(g, u, v, subset)
            hr = max(rho_numeric(c) for c in _component_graphs(out))
            assert hr > rho_numeric(g) + 1e-12
            done += 1
        _ok("criterion 9c: neighbor shift raised the radius in 500/500 "
            "certified-precondition instances")

    def test_vertex_split_500_certified(self):
        rng = random.Random(97)
        done = 0
        equal_cases = 0
        while done < 500:
            g = _random_split_instance(rng)
            if g is None:
                continue
            graph, v, side = g
            try:
                out = split_vertex(graph, v, side)
            except Exception:
                continue
            before, after = rho_numeric(graph), rho_numeric(out)
            assert after <= before + 1e-10
            if after >= before - 1e-8:
                x = perron_pair(graph).perron
                nb = list(graph.neighbors(v))
                spread = max(x[w] for w in nb) - min(x[w] for w in nb)
                assert len(nb) == 3 and spread < 1e-8
                equal_cases += 1
            done += 1
        _ok(f"criterion 9d: vertex split never raised the radius in 500/500 "
            f"instances ({equal_cases} tight cases all degree-3 symmetric)")


def _component_graphs(g: Graph) -> list[Graph]:
    from spectramin.graphs import connected_components

    out = []
    for mask in connected_components(g):
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        out.append(g.subgraph(vs))
    return out


def _random_connected(rng, n, p=0.4) -> Graph:
    while True:
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if is_connected(g):
            return g


def _random_split_instance(rng):
    """Random (graph, hub, first side) satisfying the split hypotheses."""
    kind = rng.random()
    if kind < 0.5:
        m = rng.randint(3, 7)
        q = rng.randint(3, 7)
        p = rng.randint(max(q, m), 8)
        if q > min(m, p):
            return None
        g, lab = build_bicyclic(spec_B(m, p, q))
        v = lab.hub_b
    else:
        g = _random_connected(rng, rng.randint(5, 9), 0.3)
        bridges = cut_edges(g)
        if not bridges:
            return None
        a, b = rng.choice(bridges)
        v = a if g.degree(a) >= 3 else b
    if g.degree(v) < 3:
        return None
    x = perron_pair(g).perron
    nv = list(g.neighbors(v))
    w1 = min(nv, key=lambda w: (x[w], w))
    if any(x[w1] > x[w] + 1e-9 for w in nv):
        return None
    if (min(v, w1), max(v, w1)) not in set(cut_edges(g)):
        return None
    others = [w for w in nv if w != w1]
    rng.shuffle(others)
    s = rng.randint(1, len(others) - 1) if len(others) > 1 else 1
    return g, v, [w1] + others[:s]


# -- criterion 4: edge-minimal balanced pair -----------------------------------


class TestCriterion4EdgeMinimalPair:
    @pytest.mark.parametrize("n", range(7, 13))
    def test_unrestricted_argmin_pair(self, n):
        k = -(-n // 3)
        p = n + 1 - 2 * k
        res = minimizer_bicyclic(n, None, workers=WORKERS)
        want = [f"P:{k},{p},{k}", f"B:{k},{p},{k}"]
        assert _argmin_is(res, want), (n, [to_graph6(g) for g in res.argmin])
        assert not res.unresolved
        assert compare_rho_certified(
            graph_from_family(want[0]), graph_from_family(want[1])
        ) == "equal"
        _ok(f"criterion 4: n={n} two-cycle argmin = {{P({k},{p},{k}), B({k},{p},{k})}} "
            "with gcd-certified equal radii")


# -- criterion 10: headline scope note ------------------------------------------


class TestCriterion10Scope:
    def test_extended_run_is_exposed_not_required(self):
        # the n = 10 full-space upgrade stays behind an explicit flag;
        # the bicyclic-mode result for n = 10 is covered by criterion 3
        from spectramin.enumeration import EXTENDED_CAP, FULL_SPACE_CAP

        assert FULL_SPACE_CAP == 9 and EXTENDED_CAP == 10
        with pytest.raises(Exception):
            next(enumerate_connected(10))
        _ok("criterion 10: property/exhaustion suites are the acceptance surface; "
            "the n=10 full-space run stays behind --extended")


# -- criterion 1: full-space case table (n <= 9) --------------------------------


class TestCriterion1FullSpace:
    # the searched totals are pinned to the published connected-class counts,
    # so "exhaustive" is itself a checked claim

    def test_n7_and_n8(self):
        res = minimizer(7, 3, workers=WORKERS)
        assert _argmin_is(res, ["C:7"]) and len(res.argmin) == 1
        assert not res.unresolved and res.searched == 853
        res = minimizer(8, 3, workers=WORKERS)
        assert _argmin_is(res, ["B:3,3,3"]) and len(res.argmin) == 1
        assert not res.unresolved and res.searched == 11117
        _ok("criterion 1: full-space minimizers at n=7 (C_7, 853 classes) and "
            "n=8 (B(3,3,3), 11117 classes), unique after certified comparison")

    def test_n9(self):
        res = minimizer(9, 4, workers=WORKERS)
        assert _argmin_is(res, ["C:9"]) and len(res.argmin) == 1
        assert not res.unresolved
        assert res.searched == 261080
        _ok(f"criterion 1: full-space minimizer at n=9 is C_9 (261080 classes "
            f"searched, {res.class_size} in the alpha class), unique after "
            "certified comparison")


# -- criterion 3: bicyclic mode for even n = 10..16 ------------------------------


# n -> (two-cycle classes searched, classes with alpha = n/2 - 1)
BICYCLIC_COUNTS = {10: (2678, 30), 12: (28908, 171), 14: (300748, 990), 16: (3042808, 5670)}


class TestCriterion3BicyclicMode:
    @pytest.mark.parametrize("n", [10, 12, 14, 16])
    def test_even_case_table(self, n):
        expected = theorem_prediction(n)
        res = minimizer_bicyclic(n, n // 2 - 1, workers=WORKERS)
        assert _argmin_is(res, [expected]), (n, [to_graph6(g) for g in res.argmin])
        assert len(res.argmin) == 1 and not res.unresolved
        # n = 10 is pinned against the orderly engine (exact class-set equality)
        assert (res.searched, res.class_size) == BICYCLIC_COUNTS[n]
        _ok(f"criterion 3: n={n} two-cycle argmin with alpha={n // 2 - 1} is {expected} "
            f"({res.searched} two-cycle classes searched, {res.class_size} in the class)")

    def test_n16_case_table_vs_swapped_candidate(self):
        # the balanced case-table member B(5,7,5) beats the all-odd
        # alternative B(7,3,7) of the same order, certified exactly
        a = graph_from_family("B:5,7,5")
        b = graph_from_family("B:7,3,7")
        assert compare_rho_certified(a, b) == "less"
        _ok("criterion 3: certified rho(B(5,7,5)) < rho(B(7,3,7)) at n=16")
