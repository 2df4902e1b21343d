"""Spectral routes: power iteration, dense solver, exact polynomials, brackets."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spectramin import exactpoly as xp
from spectramin import spectral, verify
from spectramin.enumeration import enumerate_connected
from spectramin.graphs import (
    Graph,
    InvalidInputError,
    InvalidParameterError,
    build_bicyclic,
    build_complete,
    build_cycle,
    double_fork_tree,
    is_connected,
    spec_B,
    spec_P,
)
from spectramin.spectral import (
    CHARPOLY_PRIMES,
    DENSE_CAP,
    _CertifiedRho,
    _coeff_bound,
    _dyadic,
    char_poly,
    compare_rho_certified,
    full_spectrum,
    interlacing_holds,
    perron_pair,
    rho_bracket,
    rho_numeric,
)

# SHA-256 of the "lo hi" lines of rho_bracket(g, 10^-12) over every connected
# graph with 2..7 vertices (995) and the _grid_specs(6) graphs (312), and of
# the 233 verdicts verify_family_grids(6) reads, computed with Sturm counts
# before Descartes counts on the Taylor chain replaced them
BRACKETS7_SHA256 = "e094e8021613d09c24bd2d15d74ba6a0bc4201d8e97678cd35e2e48427f47c85"
GRID6_VERDICTS_SHA256 = "b40c32d6b7add2a6b2acacf1a73954001adc545fb52a6451d7a61a899b1f0159"


def char_poly_oracle(g: Graph) -> tuple[int, ...]:
    """Faddeev-LeVerrier over Python integers, constant-first: the reference
    the modular ``char_poly`` must match coefficient for coefficient."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    # M <- A (M + c I), c_k = -tr(M)/k
    m = [[1 if (g.rows[i] >> j) & 1 else 0 for j in range(n)] for i in range(n)]
    coeffs_desc = [1]
    c = -sum(m[i][i] for i in range(n))
    coeffs_desc.append(c)
    for k in range(2, n + 1):
        for i in range(n):
            m[i][i] += c
        nm = [[0] * n for _ in range(n)]
        for i in range(n):
            row = nm[i]
            for u in nbrs[i]:
                mu = m[u]
                for j in range(n):
                    row[j] += mu[j]
        m = nm
        tr = sum(m[i][i] for i in range(n))
        c, rem = divmod(-tr, k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs_desc.append(c)
    return tuple(reversed(coeffs_desc))


def primes_used(g: Graph) -> int:
    """How many of CHARPOLY_PRIMES char_poly multiplies before it passes the bound."""
    bound, modulus = 2 * _coeff_bound(g.n, max(g.degrees())), 1
    for i, p in enumerate(CHARPOLY_PRIMES, 1):
        modulus *= p
        if modulus > bound:
            return i
    raise AssertionError("the primes do not cover the bound")


def count_roots_oracle(p: tuple[int, ...], a: Fraction, b: Fraction) -> int:
    """Roots in ``(a, b]`` by Descartes' rule on the Taylor chain ``p, p'/1!,
    p''/2!, ...``, every member's sign at each end found by ``sign_at``: the
    per-derivative count that the Taylor-shift ``count_roots_in`` must match."""
    # member k is member k - 1 differentiated and divided by k, exactly: its
    # coefficients are C(i, k) * p[i]
    chain = [xp.normalize(p)]
    for k in range(1, xp.degree(chain[0]) + 1):
        q = chain[-1]
        chain.append(tuple(i * q[i] // k for i in range(1, len(q))))

    def variations(x: Fraction) -> int:
        out = prev = 0
        for q in chain:
            s = xp.sign_at(q, x)
            if s:
                out += prev == -s
                prev = s
        return out

    return variations(a) - variations(b) if a < b else 0


def random_connected(rng, n, p=0.4) -> Graph:
    while True:
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if is_connected(g):
            return g


class TestExactPoly:
    def test_root_counts(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        p = (-6, 11, -6, 1)
        assert xp.count_roots_in(p, Fraction(0), Fraction(4)) == 3
        assert xp.count_roots_in(p, Fraction(3, 2), Fraction(5, 2)) == 1
        assert xp.count_roots_in(p, Fraction(4), Fraction(9)) == 0
        # a simple root at an endpoint: the count is over (a, b]
        assert xp.count_roots_in(p, Fraction(1), Fraction(2)) == 1
        assert xp.count_roots_in(p, Fraction(2), Fraction(3)) == 1

    def test_multiple_root_endpoint(self):
        # (x-1)^2 (x-3): the double root counts twice, at either end of (a, b]
        p = (-3, 7, -5, 1)
        assert xp.count_roots_in(p, Fraction(0), Fraction(4)) == 3
        assert xp.count_roots_in(p, Fraction(0), Fraction(1)) == 2
        assert xp.count_roots_in(p, Fraction(1), Fraction(4)) == 1
        assert xp.count_roots_in(p, Fraction(1), Fraction(3)) == 1
        assert xp.count_roots_in(p, Fraction(1, 2), Fraction(3, 2)) == 2

    def test_counts_with_multiplicity(self):
        # (x-1)^2 (x+2): three roots with multiplicity, two distinct
        p = (2, -3, 0, 1)
        assert xp.count_roots_in(p, Fraction(-3), Fraction(3)) == 3
        assert xp.count_roots_in(p, Fraction(-2), Fraction(3)) == 2

    def test_counts_against_known_roots(self):
        # oracle: products of rational linear factors (den x - num), with
        # repeats, counted over (a, b] with endpoints drawn from the roots too
        rng = random.Random(11)
        for _ in range(300):
            roots = []
            p = (1,)
            for _ in range(rng.randint(1, 8)):
                r = roots[-1] if roots and rng.random() < 0.3 else Fraction(
                    rng.randint(-20, 20), rng.randint(1, 4))
                roots.append(r)
                f = (-r.numerator, r.denominator)
                p = tuple(
                    sum(p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < 2)
                    for k in range(len(p) + 1)
                )
            ends = roots + [Fraction(rng.randint(-25, 25), rng.randint(1, 4)) for _ in range(4)]
            for _ in range(20):
                a, b = sorted(rng.sample(ends, 2))
                assert xp.count_roots_in(p, a, b) == sum(a < r <= b for r in roots)
                assert xp.count_roots_in(p, a, b) == count_roots_oracle(p, a, b)

    def test_counts_against_chain_oracle(self):
        # the grid char polys, at dyadic points on both sides of each radius;
        # every root lies in (-U, U), so V(U) = 0 and V(-U) = deg p
        for spec in verify._grid_specs(6):
            g = build_bicyclic(spec)[0]
            p = char_poly(g).coeffs
            x = _dyadic(rho_numeric(g))
            upper = Fraction(1 + max(g.degrees()))
            points = sorted(x + s * Fraction(1, 1 << k) for s in (-1, 1) for k in (1, 10, 20, 40))
            for i, a in enumerate(points):
                assert xp.variations_at(p, a) == count_roots_oracle(p, a, upper)
                for b in points[i + 1:]:
                    assert xp.count_roots_in(p, a, b) == count_roots_oracle(p, a, b)
            assert xp.variations_at(p, upper) == 0
            assert xp.variations_at(p, -upper) == xp.degree(p)

    def test_gcd(self):
        f = (-2, 1)  # x - 2
        g = (2, -3, 1)  # (x-1)(x-2)
        assert xp.poly_gcd(f, g) == (-2, 1)
        assert xp.degree(xp.poly_gcd((1, 1), (1, 0, 1))) == 0

    def test_serialization_round_trip(self):
        p = (3, 12, 11, -4, -7, 0, 1)
        assert xp.poly_from_line(xp.poly_to_line(p)) == p


class TestCharPoly:
    def test_known(self):
        assert char_poly(build_cycle(3)).coeffs == (-2, -3, 0, 1)
        assert char_poly(Graph(2, [(0, 1)])).coeffs == (-1, 0, 1)
        assert char_poly(Graph(1)).coeffs == (0, 1)

    def test_monic_traceless(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_connected(rng, rng.randint(2, 9))
            c = char_poly(g).coeffs
            assert c[-1] == 1
            assert c[-2] == 0  # adjacency trace is zero

    def test_matches_numpy_roots(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 8))
            coeffs = char_poly(g).coeffs
            roots = np.sort(np.roots(list(reversed(coeffs))).real)
            eig = np.sort(np.linalg.eigvalsh(g.adjacency_matrix()))
            assert np.allclose(roots, eig, atol=1e-6)

    def test_matches_big_integer_oracle(self):
        graphs = [build_bicyclic(spec)[0] for spec in verify._grid_specs(9)]
        for k in (4, 6, 8):  # the descent readings' graphs
            for spec in (spec_P(k - 1, k + 1, k - 1), spec_B(k - 1, k + 1, k - 1),
                         spec_P(k + 1, k - 1, k + 1), spec_B(k - 1, k - 1, k + 1)):
                graphs.append(build_bicyclic(spec)[0])
        graphs += [g for n in range(1, 8) for g in enumerate_connected(n)]
        rng = random.Random(14)
        graphs += [Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < p])
                   for n, p in [(9, 0.5), (20, 0.2), (30, 0.3), (40, 0.1), (48, 0.5),
                                (56, 0.05), (64, 0.1), (64, 0.3)]]
        for g in graphs:
            assert char_poly(g).coeffs == char_poly_oracle(g)
        assert {primes_used(g) for g in graphs} == {1, 2, 3, 4}

    def test_complete_graphs_to_64(self):
        # against (x - (n-1)) (x + 1)^(n-1): the big-integer oracle takes over a
        # second on K_64 alone
        for n in range(40, 65):
            g = build_complete(n)
            want = tuple((math.comb(n - 1, i - 1) if i else 0) - (n - 1) * math.comb(n - 1, i)
                         for i in range(n + 1))
            assert char_poly(g).coeffs == want
            assert primes_used(g) >= 3

    def test_primes(self):
        sympy = pytest.importorskip("sympy")
        assert all(sympy.isprime(p) and 64 < p < 2**56 for p in CHARPOLY_PRIMES)
        assert math.prod(CHARPOLY_PRIMES) > 2 * _coeff_bound(64, 63)

    def test_largest_root_matches_perron(self):
        g, _ = build_bicyclic(spec_B(3, 1, 3))
        coeffs = char_poly(g).coeffs
        top = max(np.roots(list(reversed(coeffs))).real)
        assert abs(top - perron_pair(g).rho) < 1e-9


class TestPerronPair:
    def test_cycles_are_two(self):
        for n in range(3, 51):
            res = perron_pair(build_cycle(n))
            assert abs(res.rho - 2.0) < 1e-10
            assert res.residual <= 1e-10
            assert np.all(res.perron > 0)

    def test_complete(self):
        res = perron_pair(build_complete(4))
        assert abs(res.rho - 3.0) < 1e-12
        assert np.allclose(res.perron, 0.5, atol=1e-9)

    def test_unit_norm_and_positive(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_connected(rng, rng.randint(2, 10))
            res = perron_pair(g)
            assert abs(np.linalg.norm(res.perron) - 1.0) < 1e-12
            assert np.min(res.perron) > 0

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidInputError):
            perron_pair(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_tolerance(self, tol):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            perron_pair(build_cycle(7), tol=tol)

    def test_bicyclic_against_bracket(self):
        g, _ = build_bicyclic(spec_B(3, 3, 3))
        res = perron_pair(g)
        br = rho_bracket(g, Fraction(1, 10**12))
        assert abs(res.rho - float(br.midpoint())) < 1e-9


class TestFullSpectrum:
    def test_known(self):
        assert np.allclose(full_spectrum(build_cycle(4)), [2, 0, 0, -2], atol=1e-9)
        assert np.allclose(full_spectrum(build_complete(4)), [3, -1, -1, -1], atol=1e-9)

    def test_double_fork_top_is_two(self):
        for n in (6, 7, 10, 20, 30):
            sp = full_spectrum(double_fork_tree(n))
            assert abs(sp[0] - 2.0) < 1e-10

    def test_cap(self):
        assert abs(full_spectrum(build_cycle(DENSE_CAP))[0] - 2.0) < 1e-9
        with pytest.raises(InvalidInputError):
            full_spectrum(build_cycle(DENSE_CAP + 1))

    def test_top_simple_on_families(self):
        for m, p, q in [(3, 1, 3), (5, 4, 7), (9, 9, 9)]:
            sp = full_spectrum(build_bicyclic(spec_B(m, p, q))[0])
            assert sp[0] - sp[1] > 1e-10


class TestRhoBracket:
    def test_cycle_exact_two(self):
        br = rho_bracket(build_cycle(5), Fraction(1, 10**12))
        assert br.lo < 2 <= br.hi
        assert br.width <= Fraction(1, 10**12)

    def test_complete_graph(self):
        br = rho_bracket(build_complete(4))
        assert br.lo < 3 <= br.hi

    def test_width_validation(self):
        with pytest.raises(Exception):
            rho_bracket(build_cycle(4), Fraction(0))

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_width(self, width):
        with pytest.raises(InvalidParameterError, match="finite"):
            rho_bracket(build_cycle(7), width)

    def test_huge_integer_width_is_finite(self):
        # an int too large for a float is still a finite width
        br = rho_bracket(build_cycle(7), 10**400)
        assert br.lo < 2 <= br.hi

    def test_exact_cap_refused_before_any_eigensolve(self, monkeypatch):
        def no_eigh(a):
            raise AssertionError("eigensolve before the cap check")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        with pytest.raises(InvalidInputError, match="capped at n = 64"):
            rho_bracket(build_cycle(spectral.EXACT_CAP + 1))

    def test_midpoint_matches_numeric(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_connected(rng, rng.randint(2, 9))
            br = rho_bracket(g, Fraction(1, 10**10))
            assert abs(float(br.midpoint()) - rho_numeric(g)) < 1e-9

    def test_disjoint_brackets_certify_order(self):
        a = build_bicyclic(spec_B(3, 3, 3))[0]
        b = build_bicyclic(spec_B(3, 1, 5))[0]
        ba = rho_bracket(a, Fraction(1, 10**9))
        bb = rho_bracket(b, Fraction(1, 10**9))
        assert ba.hi <= bb.lo
        assert compare_rho_certified(a, b) == "less"

    def test_bisection_oracle(self):
        # independent oracle: plain float bisection on the characteristic
        # polynomial from its numpy evaluation
        g, _ = build_bicyclic(spec_B(3, 3, 3))
        coeffs = list(reversed(char_poly(g).coeffs))
        lo, hi = 2.0, 4.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if np.polyval(coeffs, mid) < 0:
                lo = mid
            else:
                hi = mid
        br = rho_bracket(g, Fraction(1, 10**12))
        assert abs(float(br.midpoint()) - (lo + hi) / 2) < 1e-9

    @pytest.mark.parametrize("m,p", [(3, 30), (4, 34), (5, 35), (3, 42)])
    def test_tiny_top_gap(self, m, p):
        # rho - lambda_2 is below the 2^-20 seed window (3.7e-7 for B(3,30,3)):
        # only root counts, not sign bisection, can shed lambda_2
        g, _ = build_bicyclic(spec_B(m, p, m))
        eig = np.linalg.eigvalsh(g.adjacency_matrix())
        br = rho_bracket(g, Fraction(1, 10**12))
        assert br.lo < Fraction(float(eig[-1])) + Fraction(1, 10**13)
        assert Fraction(float(eig[-1])) - Fraction(1, 10**13) <= br.hi
        assert br.lo > Fraction(float(eig[-2]))


class TestCertificatePins:
    def test_brackets_to_7_and_grid_6_pinned(self):
        h = hashlib.sha256()
        graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
        graphs += [build_bicyclic(spec)[0] for spec in verify._grid_specs(6)]
        for g in graphs:
            br = rho_bracket(g, Fraction(1, 10**12))
            h.update(f"{br.lo} {br.hi}\n".encode())
        assert len(graphs) == 1307
        assert h.hexdigest() == BRACKETS7_SHA256

    def test_grid_6_verdicts_pinned(self, monkeypatch):
        verdicts = []

        def record(*args):
            verdicts.append(compare_rho_certified(*args))
            return verdicts[-1]

        monkeypatch.setattr(verify, "compare_rho_certified", record)
        reports = verify.verify_family_grids(6)
        assert all(r.status == "pass" for r in reports)
        assert (verdicts.count("less"), verdicts.count("equal")) == (205, 28)
        assert hashlib.sha256("\n".join(verdicts).encode()).hexdigest() == GRID6_VERDICTS_SHA256

    def test_grid_6_verdicts_from_char_polys_alone(self, monkeypatch):
        # with no Perron bracket every pair goes to the char polys: the
        # isolating brackets and the gcd must give the same verdicts
        verdicts = []

        def record(*args):
            verdicts.append(compare_rho_certified(*args))
            return verdicts[-1]

        monkeypatch.setattr(spectral, "_perron_bracket", lambda a, v: (Fraction(0), None))
        monkeypatch.setattr(verify, "compare_rho_certified", record)
        reports = verify.verify_family_grids(6)
        assert all(r.status == "pass" for r in reports)
        assert (verdicts.count("less"), verdicts.count("equal")) == (205, 28)
        assert hashlib.sha256("\n".join(verdicts).encode()).hexdigest() == GRID6_VERDICTS_SHA256


class TestCompareCertified:
    @pytest.fixture
    def no_refine(self, monkeypatch):
        # the gcd on the isolating brackets settles an equality before any bisection
        def refuse(cert, width):
            raise AssertionError("an equality needs no refinement")

        monkeypatch.setattr(_CertifiedRho, "refine", refuse)

    @pytest.mark.parametrize("m,p", [(3, 32), (3, 44), (4, 34), (5, 48)])
    def test_tiny_gap_refined_after_a_zero_gcd_count(self, m, p, monkeypatch):
        # rho(B(m,p,m)) - rho(B(m,p,m+1)) is below 10^-9: the Perron brackets
        # overlap, the gcd has no root in the isolating overlap, and only
        # bisection separates the two
        a, b = build_bicyclic(spec_B(m, p, m))[0], build_bicyclic(spec_B(m, p, m + 1))[0]
        refined = []
        refine = _CertifiedRho.refine

        def counted(cert, width):
            refined.append(cert.graph)
            refine(cert, width)

        monkeypatch.setattr(_CertifiedRho, "refine", counted)
        certs = {}
        assert compare_rho_certified(a, b, certs) == "greater"
        (lo_a, hi_a), (lo_b, hi_b) = certs[a].perron, certs[b].perron
        assert lo_a <= hi_b and lo_b <= hi_a
        assert set(refined) == {a, b}
        width = Fraction(1, 2**70)
        assert rho_bracket(b, width).hi <= rho_bracket(a, width).lo

    def test_equal_family_pairs(self, no_refine):
        for m, p in [(3, 1), (4, 2), (5, 4)]:
            a = build_bicyclic(spec_P(m, p, m))[0]
            b = build_bicyclic(spec_B(m, p, m))[0]
            assert compare_rho_certified(a, b) == "equal"

    def test_equal_cycles(self, no_refine):
        assert compare_rho_certified(build_cycle(5), build_cycle(8)) == "equal"

    def test_strict_pair(self):
        b434 = build_bicyclic(spec_B(4, 3, 4))[0]
        b443 = build_bicyclic(spec_B(4, 4, 3))[0]
        assert compare_rho_certified(b434, b443) == "less"
        assert compare_rho_certified(b443, b434) == "greater"
        b3303 = build_bicyclic(spec_B(3, 30, 3))[0]
        b3304 = build_bicyclic(spec_B(3, 30, 4))[0]
        assert compare_rho_certified(b3303, b3304) == "greater"

    def test_irrational_equality_via_gcd(self, no_refine):
        a = build_bicyclic(spec_B(3, 3, 3))[0]
        b = build_bicyclic(spec_B(3, 2, 5))[0]  # also rho = (1 + sqrt 13)/2
        assert compare_rho_certified(a, b) == "equal"

    def test_consistent_with_numeric(self):
        rng = random.Random(6)
        for _ in range(25):
            g1 = random_connected(rng, rng.randint(3, 8))
            g2 = random_connected(rng, rng.randint(3, 8))
            verdict = compare_rho_certified(g1, g2)
            r1, r2 = rho_numeric(g1), rho_numeric(g2)
            if verdict == "less":
                assert r1 < r2 + 1e-9
            elif verdict == "greater":
                assert r2 < r1 + 1e-9
            elif verdict == "equal":
                assert abs(r1 - r2) < 1e-9


class TestPerronTier:
    @pytest.fixture
    def charpoly_calls(self, monkeypatch):
        calls = []
        real = spectral.char_poly

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(spectral, "char_poly", counted)
        return calls

    def test_brackets_sound_to_7_and_grid_6(self):
        # against the char poly p: no root above hi (V(hi) = 0), and rho >= lo
        # (a root above lo, or lo itself a root)
        graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
        graphs += [build_bicyclic(spec)[0] for spec in verify._grid_specs(6)]
        for g in graphs:
            lo, hi = _CertifiedRho(g).perron
            p = char_poly(g).coeffs
            assert lo <= hi < lo + Fraction(1, 10**9)
            assert xp.variations_at(p, hi) == 0
            assert xp.variations_at(p, lo) >= 1 or xp.sign_at(p, lo) == 0
        assert len(graphs) == 1307

    def test_equal_cycles_reach_the_gcd(self, charpoly_calls):
        # C_5 and C_8 both read [2, 2]; a closed bracket proves no strict
        # order, so only the gcd can call the pair equal
        c5, c8 = build_cycle(5), build_cycle(8)
        certs = {}
        assert compare_rho_certified(c5, c8, certs) == "equal"
        assert certs[c5].perron == certs[c8].perron == (2, 2)
        assert charpoly_calls == [c5, c8]

    def test_strict_pair_needs_no_char_poly(self, charpoly_calls):
        b434 = build_bicyclic(spec_B(4, 3, 4))[0]
        b443 = build_bicyclic(spec_B(4, 4, 3))[0]
        assert compare_rho_certified(b434, b443) == "less"
        assert charpoly_calls == []

    def test_zero_entry_goes_to_char_poly(self, charpoly_calls, monkeypatch):
        # a rounded Perron vector with a zero entry gives its graph a lower
        # bound only; the pair, which needs the smaller graph's upper bound,
        # is settled by the char polys, with the same verdict
        b434 = build_bicyclic(spec_B(4, 3, 4))[0]
        b443 = build_bicyclic(spec_B(4, 4, 3))[0]
        eigh = np.linalg.eigh
        target = b434.adjacency_matrix()

        def zeroed(a):
            vals, vecs = eigh(a)
            if np.array_equal(a, target):
                vecs[0, -1] = 0.0
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", zeroed)
        certs = {}
        assert compare_rho_certified(b434, b443, certs) == "less"
        assert compare_rho_certified(b443, b434, certs) == "greater"
        lo, hi = certs[b434].perron
        assert hi is None and lo <= np.linalg.eigvalsh(target)[-1]
        assert None not in certs[b443].perron
        assert charpoly_calls == [b434, b443]

    def test_half_bracket_gives_a_strict_verdict(self, charpoly_calls):
        # B(3,64,4) on 70 vertices rounds its Perron vector to a zero entry
        # and is past EXACT_CAP; C_70's upper bound 2 below its Rayleigh
        # bound settles the pair with no char poly
        c70, b = verify.graph_from_family("C:70"), verify.graph_from_family("B:3,64,4")
        assert c70.n == b.n == 70 > spectral.EXACT_CAP
        certs = {}
        assert compare_rho_certified(c70, b, certs) == "less"
        assert compare_rho_certified(b, c70, certs) == "greater"
        assert certs[b].perron[1] is None and certs[c70].perron == (2, 2)
        assert charpoly_calls == []


class TestInterlacing:
    def test_simple_cases(self):
        assert interlacing_holds(build_complete(4), [0, 1, 2])
        g = build_cycle(6)
        assert interlacing_holds(g, list(range(6)))

    def test_random_sweep(self):
        rng = random.Random(8)
        done = 0
        while done < 200:
            n = rng.randint(3, 12)
            g = random_connected(rng, n, 0.4)
            k = rng.randint(1, n)
            subset = rng.sample(range(n), k)
            assert interlacing_holds(g, subset)
            done += 1


class TestNonTreeFloor:
    def test_all_non_trees_up_to_7(self):
        from spectramin.enumeration import enumerate_connected

        for n in range(3, 8):
            for g in enumerate_connected(n):
                if g.edge_count < n:
                    continue
                r = rho_numeric(g)
                assert r >= 2.0 - 1e-10
                if abs(r - 2.0) < 1e-10:
                    assert sorted(g.degrees()) == [2] * n  # only the cycle
