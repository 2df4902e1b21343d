"""Boundary-value solve, closed-form vector, quotient, swap-gap certificate."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spectramin.analytic import (
    AnalyticSolution,
    boundary_det,
    boundary_matrix,
    f_value,
    hub_bracket,
    hub_exceeds,
    path_cycle_swap_gap,
    perron_closed_form,
    quotient_matrix_symmetric,
    rho_analytic,
    t_of_rho,
)
from spectramin.enumeration import _core_specs_bicyclic
from spectramin.graphs import (
    InvalidParameterError,
    build_bicyclic,
    spec_B,
    spec_C,
    spec_P,
)
from spectramin.spectral import NumericFailure, perron_pair, rho_numeric

# ---------------------------------------------------------------------------
# reference formulas the tests check the package against


def f_limit(i: int, k: int, a: float, b: float) -> float:
    """t -> 0 limit of f: plain linear interpolation between a and b."""
    return (b * i + a * (k - i)) / k


def log_form_t(rho: float) -> float:
    """Reference formula log((rho + sqrt(rho^2 - 4)) / 2); equals t_of_rho."""
    return math.log((rho + math.sqrt(rho * rho - 4.0)) / 2.0)


def hub_identity_residuals(sol: AnalyticSolution) -> tuple[float, float]:
    """Absolute errors of the two rearranged hub identities.

    The hub balance equations can be rewritten with all interpolants taken
    at equal endpoint values:

        a cosh t - f_1(t,m,a,a) - f_1(t,p,a,a)/2 = -(a-b)/2 * sinh t / sinh pt
        a cosh t - f_1(t,q,a,a) - f_1(t,p,a,a)/2 = a(a-b)/(2b) * sinh t / sinh pt

    Both sides must match at the solved (rho, a, b); they are exact
    rearrangements, so the residuals are numerically zero.
    """
    m, p, q, t, a, b = sol.m, sol.p, sol.q, sol.t, sol.a, sol.b
    ch = math.cosh(t)
    ratio = math.sinh(t) / math.sinh(p * t)
    lhs1 = a * ch - f_value(1, t, m, a, a) - 0.5 * f_value(1, t, p, a, a)
    rhs1 = -(a - b) / 2.0 * ratio
    lhs2 = a * ch - f_value(1, t, q, a, a) - 0.5 * f_value(1, t, p, a, a)
    rhs2 = a * (a - b) / (2.0 * b) * ratio
    return abs(lhs1 - rhs1), abs(lhs2 - rhs2)


def hub_exceeds_fraction(spec, r: Fraction) -> bool:
    """Twin of hub_exceeds in Fractions: whether M(r) is not positive semidefinite.

    The walks are read off ``build_bicyclic``'s labeling and M(r) is built
    from the path determinants D_k(r) directly: a walk with L interior
    vertices between hubs u != v adds -D_{L-1}/D_L to M_uu and M_vv and
    -1/D_L to M_uv, a loop at u adds -2 (D_{L-1} + 1)/D_L to M_uu.
    """
    _, lab = build_bicyclic(spec)
    d = {-1: Fraction(0), 0: Fraction(1)}
    for k in range(1, spec.order):
        d[k] = r * d[k - 1] - d[k - 2]
    mat = {(0, 0): r, (1, 1): r, (0, 1): Fraction(0)}

    def walk(u, v, seg):
        length = len(seg)
        if u == v:
            mat[u, u] -= 2 * (d[length - 1] + 1) / d[length]
        else:
            mat[u, u] -= d[length - 1] / d[length]
            mat[v, v] -= d[length - 1] / d[length]
            mat[0, 1] -= 1 / d[length]

    if spec.family == "P":
        for seg in (lab.seg_m, lab.seg_p, lab.seg_q):
            walk(0, 1, seg)
    else:
        hub_b = 0 if lab.hub_b == lab.hub_a else 1
        walk(0, 0, lab.seg_m)
        walk(hub_b, hub_b, lab.seg_q)
        if spec.family == "B":
            walk(0, 1, lab.seg_p)
    if spec.family == "C":
        return mat[0, 0] < 0
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] ** 2
    return mat[0, 0] < 0 or mat[1, 1] < 0 or det < 0


def swap_gap_direct(m: int, p: int) -> float:
    """Twin of path_cycle_swap_gap: evaluate the hub defect directly.

    Builds the transplanted vector on B(m, p, m) explicitly and returns
    ``sigma * x_hub - sum of neighbor entries`` at the q-side hub.
    """
    sol = rho_analytic(m, m, p)
    sigma, t, a = sol.rho, sol.t, sol.a
    # entries around the q-side hub of B(m, p, m) built from f with value a
    x_hub = a
    x_cycle = f_value(1, t, m, a, a)
    x_path_end = f_value(p - 1, t, p, a, a)
    return sigma * x_hub - (2.0 * x_cycle + x_path_end)


class TestInterpolant:
    def test_boundary_values(self):
        rng = random.Random(0)
        for _ in range(50):
            t = rng.uniform(0.01, 3)
            k = rng.randint(1, 30)
            a, b = rng.uniform(0.1, 4), rng.uniform(0.1, 4)
            assert abs(f_value(0, t, k, a, b) - a) < 1e-12
            assert abs(f_value(k, t, k, a, b) - b) < 1e-12

    def test_symmetry_equal_endpoints(self):
        for i in range(0, 8):
            v1 = f_value(i, 0.9, 7, 1.7, 1.7)
            v2 = f_value(7 - i, 0.9, 7, 1.7, 1.7)
            assert abs(v1 - v2) < 1e-13

    def test_hand_value(self):
        # sinh(ln 2) = 3/4 and sinh(2 ln 2) = 15/8, so f_1 = (3/4 + 3/4)/(15/8)
        assert abs(f_value(1, math.log(2), 2, 1, 1) - 0.8) < 1e-14

    def test_difference_equation(self):
        rng = random.Random(1)
        for _ in range(300):
            t = rng.uniform(0.01, 3)
            k = rng.randint(2, 40)
            a, b = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            i = rng.randint(0, k - 2)
            lhs = 2 * math.cosh(t) * f_value(i + 1, t, k, a, b)
            rhs = f_value(i, t, k, a, b) + f_value(i + 2, t, k, a, b)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_large_kt_no_overflow(self):
        # near the chain end the value is ~e^{-t}; deep inside it underflows to 0
        v = f_value(1, 2.0, 1000, 1.0, 1.0)
        assert abs(v - math.exp(-2.0)) < 1e-6
        assert 0.0 <= f_value(500, 2.0, 1000, 1.0, 1.0) < 1e-200

    def test_t_zero_limit(self):
        # as t -> 0 the interpolant degenerates to linear interpolation
        for i in range(0, 6):
            lim = f_limit(i, 5, 2.0, 3.0)
            assert abs(f_value(i, 1e-6, 5, 2.0, 3.0) - lim) < 1e-9

    def test_rejects_nonpositive_t(self):
        with pytest.raises(InvalidParameterError):
            f_value(1, 0.0, 3, 1, 1)

    def test_first_value_decreasing_in_length(self):
        # f_1(t, x, 1, 1) strictly decreases in x for each fixed t > 0
        for t in (0.05, 0.3, 1.0, 2.5):
            vals = [f_value(1, t, x, 1, 1) for x in range(1, 15)]
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


class TestTofRho:
    def test_exact_points(self):
        assert t_of_rho(2.0) == 0.0
        assert abs(t_of_rho(2.5) - math.log(2)) < 1e-14

    def test_round_trip(self):
        for rho in (2.1, 2.0000001, 3.7, 25.0):
            assert abs(2 * math.cosh(t_of_rho(rho)) - rho) < 1e-13 * max(1, rho)

    def test_log_form_agrees(self):
        for rho in (2.01, 2.5, 4.0):
            assert abs(log_form_t(rho) - t_of_rho(rho)) < 1e-13

    def test_rejects_below_two(self):
        with pytest.raises(InvalidParameterError):
            t_of_rho(1.99)


class TestBoundaryMatrix:
    def test_symmetric_kernel_direction(self):
        # m = q: the system is symmetric and (1, 1) spans the kernel at the root
        g, _ = build_bicyclic(spec_B(4, 2, 4))
        rho = perron_pair(g).rho
        mat = boundary_matrix(4, 2, 4, rho)
        v = mat @ np.array([1.0, 1.0])
        assert np.max(np.abs(v)) < 1e-8

    def test_det_zero_exactly_at_rho(self):
        g, _ = build_bicyclic(spec_B(5, 2, 3))
        rho = perron_pair(g).rho
        assert abs(boundary_det(5, 2, 3, rho)) < 1e-9
        assert abs(boundary_det(5, 2, 3, rho + 0.5)) > 1e-4

    def test_matrix_is_symmetric(self):
        mat = boundary_matrix(5, 3, 4, 2.4)
        assert mat[0, 1] == mat[1, 0]

    def test_positive_definite_exactly_above_rho(self):
        # inertia additivity: M(x) is positive definite iff x > rho(B)
        for m in range(3, 10):
            for p in range(1, 10):
                for q in range(3, 10):
                    rho = rho_numeric(build_bicyclic(spec_B(m, p, q))[0])
                    above = np.linalg.eigvalsh(boundary_matrix(m, p, q, rho + 1e-9))
                    below = np.linalg.eigvalsh(boundary_matrix(m, p, q, rho - 1e-9))
                    assert above[0] > 0.0, (m, p, q)
                    assert below[0] <= 0.0, (m, p, q)


class TestRhoAnalytic:
    @pytest.mark.parametrize(
        "m,p,q",
        # the last three have rho - lambda_2 below 5e-4: the solve must tell close roots apart
        [(4, 2, 4), (5, 2, 3), (3, 1, 3), (9, 9, 9), (3, 16, 3), (3, 17, 3), (4, 20, 4)],
    )
    def test_matches_power_iteration(self, m, p, q):
        sol = rho_analytic(m, p, q)
        g, _ = build_bicyclic(spec_B(m, p, q))
        assert abs(sol.rho - perron_pair(g).rho) < 1e-9

    def test_sign_facts(self):
        assert abs(rho_analytic(4, 2, 4).a - rho_analytic(4, 2, 4).b) < 1e-10
        sol = rho_analytic(5, 2, 3)
        assert sol.a < sol.b  # bigger cycle gets the smaller hub value
        sol = rho_analytic(3, 2, 5)
        assert sol.a > sol.b

    def test_full_vector_matches_eigensolver(self):
        for m, p, q in [(3, 1, 3), (5, 3, 4)]:
            sol = rho_analytic(m, p, q)
            x = perron_closed_form(sol)
            x = x / np.linalg.norm(x)
            g, _ = build_bicyclic(spec_B(m, p, q))
            assert np.max(np.abs(x - perron_pair(g).perron)) < 1e-8

    def test_vector_satisfies_eigen_equation_everywhere(self):
        sol = rho_analytic(4, 2, 4)
        g, _ = build_bicyclic(spec_B(4, 2, 4))
        x = perron_closed_form(sol)
        ax = g.adjacency_matrix() @ x
        assert np.max(np.abs(ax - sol.rho * x)) < 1e-10

    def test_symmetric_vector_under_swap(self):
        sol = rho_analytic(4, 2, 4)
        x = perron_closed_form(sol)
        g, lab = build_bicyclic(spec_B(4, 2, 4))
        walk_a = (lab.hub_a,) + lab.seg_m
        walk_b = (lab.hub_b,) + lab.seg_q
        for u, v in zip(walk_a, walk_b):
            assert abs(x[u] - x[v]) < 1e-10

    def test_normalization(self):
        sol = rho_analytic(7, 3, 4)
        assert min(sol.a, sol.b) == 1.0

    def test_residuals_small(self):
        sol = rho_analytic(6, 5, 8)
        assert max(sol.residual_a, sol.residual_b) <= 1e-10

    def test_long_dumbbells_solve(self):
        # every B(m, p, q) with 3 <= m <= q <= 15 and 1 <= p <= 30 solves and
        # agrees with the dense eigensolver; an absolute hub residual bound
        # rejected 669 of these 2,730
        worst = 0.0
        for m in range(3, 16):
            for q in range(m, 16):
                for p in range(1, 31):
                    g, _ = build_bicyclic(spec_B(m, p, q))
                    worst = max(worst, abs(rho_analytic(m, p, q).rho - rho_numeric(g)))
        assert worst < 1e-13

    def test_long_dumbbell_hub_values(self):
        # the hub values come from the better-conditioned row of M(rho): the
        # first row alone left B(3,30,13) a relative hub residual of 3.6e-4
        worst = 0.0
        for m in range(3, 16):
            for q in range(m, 16):
                for p in range(1, 31):
                    sol = rho_analytic(m, p, q)
                    worst = max(worst, sol.residual_a / sol.a, sol.residual_b / sol.b)
        assert worst <= 1e-12

    @pytest.mark.parametrize("m,p,q", [(3, 30, 13), (3, 30, 15), (15, 30, 3), (5, 12, 5)])
    def test_hub_ratio_matches_eigenvector(self, m, p, q):
        sol = rho_analytic(m, p, q)
        g, lab = build_bicyclic(spec_B(m, p, q))
        vec = np.linalg.eigh(g.adjacency_matrix())[1][:, -1]
        ratio = vec[lab.hub_a] / vec[lab.hub_b]
        assert abs(sol.a / sol.b - ratio) <= 1e-8 * ratio
        if m == q:
            assert sol.a == sol.b == 1.0

    def test_path_beyond_float_range(self):
        # at p = 2000 the hub coupling 1/D_{p-1}(rho) underflows: equal cycles
        # still solve (a = b by symmetry), unequal ones have a hub ratio past
        # the float range and are refused; a triangle with an infinite tail
        # has radius sqrt(5), which the long dumbbell meets to rounding
        sol = rho_analytic(3, 2000, 3)
        assert sol.a == sol.b == 1.0
        assert abs(sol.rho - 5**0.5) < 1e-14
        with pytest.raises(NumericFailure):
            rho_analytic(3, 2000, 4)

    def test_failed_seed_falls_back_to_the_bracket(self, monkeypatch):
        from spectramin import analytic

        monkeypatch.setattr(analytic, "_newton_root", lambda walks: 2.5)
        for m, p, q in [(4, 2, 4), (3, 30, 15), (9, 9, 9)]:
            g, _ = build_bicyclic(spec_B(m, p, q))
            assert abs(rho_analytic(m, p, q).rho - rho_numeric(g)) < 1e-13

    @pytest.mark.parametrize("m,p,q", [(4, 2, 4), (6, 5, 8), (3, 19, 4), (3, 30, 15), (15, 1, 15)])
    @pytest.mark.parametrize("shift", [1e-9, -1e-9])
    def test_moved_root_is_refused(self, m, p, q, shift):
        # the exact hub check proves the solved root and refuses one moved by a relative 1e-9
        from spectramin.analytic import _proves_root

        root = rho_analytic(m, p, q).rho
        assert _proves_root(spec_B(m, p, q), root)
        assert not _proves_root(spec_B(m, p, q), root * (1 + shift))

    def test_rearranged_identities(self):
        for m, p, q in [(3, 1, 3), (5, 2, 3), (4, 7, 9), (8, 3, 6)]:
            r1, r2 = hub_identity_residuals(rho_analytic(m, p, q))
            assert max(r1, r2) < 1e-10


class TestHubExceeds:
    def test_agrees_with_eigensolver_on_every_core_to_24(self):
        # 1,260 cores; at rho -/+ 1e-8 the predicate must read True/False
        specs = _core_specs_bicyclic(24)
        assert len(specs) == 1260
        for spec in specs:
            g, _ = build_bicyclic(spec)
            rho = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
            assert hub_exceeds(spec, int(math.ldexp(rho - 1e-8, 52)), 52), spec
            assert not hub_exceeds(spec, int(math.ldexp(rho + 1e-8, 52)), 52), spec

    def test_matches_fraction_twin(self):
        for spec in _core_specs_bicyclic(10):
            grid = [(R, 5) for R in range(64, 129, 2)]
            near = int(math.ldexp(rho_numeric(build_bicyclic(spec)[0]), 40))
            grid += [(R, 40) for R in range(near - 2, near + 3)]
            for R, b in grid:
                assert hub_exceeds(spec, R, b) == hub_exceeds_fraction(spec, Fraction(R, 2**b)), (
                    spec, R, b)

    def test_rejects_radius_below_two(self):
        with pytest.raises(InvalidParameterError):
            hub_exceeds(spec_B(3, 1, 3), 2**11 - 1, 10)
        with pytest.raises(InvalidParameterError):
            hub_bracket(spec_B(3, 1, 3), 0)

    @pytest.mark.parametrize("R, b", [(2.5 * 2**10, 10), (3 * 2**10, 10.0),
                                      (Fraction(3 * 2**10), 10)])
    def test_rejects_non_integer_arguments(self, R, b):
        # a float R would run the "exact" recurrence in floats
        with pytest.raises(InvalidParameterError, match="needs ints"):
            hub_exceeds(spec_B(3, 1, 3), R, b)

    @pytest.mark.parametrize("width", [float("inf"), float("nan"), -1.0])
    def test_rejects_non_finite_widths(self, width):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            hub_bracket(spec_B(3, 1, 3), width)

    def test_huge_integer_width_is_finite(self):
        # an int too large for a float is still a finite width
        br = hub_bracket(spec_B(3, 1, 3), 10**400)
        assert (br.lo, br.hi) == (2, 3)

    @pytest.mark.parametrize("spec", [spec_C(3, 3), spec_C(5, 9), spec_P(1, 2, 2), spec_P(4, 6, 9),
                                      spec_B(3, 1, 3), spec_B(7, 12, 4)])
    def test_bracket_holds_the_radius(self, spec):
        width = Fraction(1, 10**12)
        br = hub_bracket(spec, width)
        rho = rho_numeric(build_bicyclic(spec)[0])
        assert br.width <= width
        assert br.lo - Fraction(1, 10**13) < Fraction(rho) <= br.hi + Fraction(1, 10**13)

    @pytest.mark.parametrize("m,p,q", [(4, 2, 4), (3, 30, 15), (15, 1, 15), (3, 200, 3)])
    def test_bracket_reproduces_rho_analytic(self, m, p, q):
        br = hub_bracket(spec_B(m, p, q), Fraction(1, 2**44))
        assert abs(Fraction(rho_analytic(m, p, q).rho) - br.midpoint()) <= br.width


class TestQuotient:
    @pytest.mark.parametrize("m,p", [(3, 1), (4, 3), (6, 2), (8, 8)])
    def test_top_eigenvalue_matches(self, m, p):
        qm = quotient_matrix_symmetric(m, p)
        gb, _ = build_bicyclic(spec_B(m, p, m))
        gp, _ = build_bicyclic(spec_P(m, p, m))
        assert abs(qm.top_eigenvalue() - perron_pair(gb).rho) < 1e-9
        assert abs(qm.top_eigenvalue() - perron_pair(gp).rho) < 1e-9

    def test_classes_partition(self):
        qm = quotient_matrix_symmetric(5, 4)
        n = 5 + 4 + 5 - 1
        seen = sorted(v for cls in qm.classes for v in cls)
        assert seen == list(range(n))

    def test_integer_counts(self):
        qm = quotient_matrix_symmetric(4, 2)
        assert np.array_equal(qm.matrix, np.round(qm.matrix))
        assert np.all(qm.matrix >= 0)

    def test_equality_over_grid(self):
        from spectramin.spectral import compare_rho_certified

        for m in range(3, 9):
            for p in range(1, 9):
                gb, _ = build_bicyclic(spec_B(m, p, m))
                gp, _ = build_bicyclic(spec_P(m, p, m))
                assert compare_rho_certified(gb, gp) == "equal", (m, p)


class TestSwapGap:
    @pytest.mark.parametrize("m,p", [(3, 5), (5, 3), (4, 7), (9, 3)])
    def test_positive_and_matches_direct(self, m, p):
        gap = path_cycle_swap_gap(m, p)
        assert gap > 0
        assert abs(gap - swap_gap_direct(m, p)) < 1e-9

    def test_certifies_ordering(self):
        for m, p in [(3, 5), (7, 4)]:
            a = rho_numeric(build_bicyclic(spec_B(m, p, m))[0])
            b = rho_numeric(build_bicyclic(spec_B(m, m, p))[0])
            assert a < b

    def test_rejects_equal_parameters(self):
        with pytest.raises(InvalidParameterError):
            path_cycle_swap_gap(4, 4)
