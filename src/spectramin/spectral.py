"""Numeric and exact-algebraic spectral radius computations.

Three independent routes to the spectral radius: power iteration on A + I
(numeric Perron pair), a dense symmetric eigensolver (full spectrum), and
an exact integer characteristic polynomial with certified rational root
brackets.  Strict orderings and equalities between radii are settled with
exact certificates, never by floating-point closeness.

``compare_rho_certified`` settles a comparison of two graphs, or of two
two-cycle cores given by their specs, in up to three steps:

* **Bounds, for strict verdicts.**  Each radius comes with exact bounds
  lo <= rho <= hi.  A graph's are its Perron bounds: round the float
  Perron vector to a non-negative integer vector x.  Then
  x^T A x / x^T x <= rho (Rayleigh: rho is the largest eigenvalue of the
  symmetric A, and x is not zero) and, when x > 0,
  rho <= max_i (Ax)_i / x_i (Collatz-Wielandt: A >= 0), both exact
  rationals in integer arithmetic.  A zero entry leaves the lower bound
  alone.  A core's are its proved hub bracket
  (``analytic.family_bracket``).  The bounds are read as closed, so only
  ``hi_1 < lo_2`` proves ``rho_1 < rho_2``, and it needs only those two
  bounds; equal radii always overlap.
* **The gcd on isolating brackets, for equalities.**  When the bounds
  overlap, each radius gets its characteristic polynomial (``char_poly``
  for a graph, ``analytic.family_char_poly`` for a core) and an
  isolating bracket ``(lo, hi]``: rho is its only root there and no root
  lies above ``hi``.  The polynomial is real-rooted (A is symmetric), so
  Descartes' rule on its Taylor coefficients counts the roots in
  ``(a, b]`` exactly, with multiplicity, at any endpoints, and two counts
  isolate rho.  A root of the integer gcd in the overlap of the two
  brackets is a root of each polynomial in its own bracket, so it is both
  radii; and equal radii are such a root.  One root count on the gcd
  decides equality.
* **Bisection, for the rest.**  A zero gcd count proves the radii differ.
  Halving each bracket by the sign of its polynomial then makes the two
  disjoint, which gives the strict verdict.

Every bracket holds its radius at every width, and refinement only
shrinks it, so one certificate can serve many comparisons: a verdict
depends only on the two radii, never on which earlier comparison refined
either bracket.  ``compare_rho_certified`` therefore accepts a dict of
certificates that a verification call keeps for its own length: each
graph gets one eigensolve and its Perron bounds, each core its hub
bracket, and either its polynomial only when a comparison first needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite, isqrt

import numpy as np

from . import exactpoly as xp
from .graphs import BicyclicSpec, Graph, InvalidInputError, InvalidParameterError, is_connected

DENSE_CAP = 512
EXACT_CAP = 64
RESIDUAL_TOL = 1e-10
POWER_MAX_ITER = 500000
CERTIFY_MAX_ROUNDS = 60
PERRON_BITS = 40  # the integer Perron vector's largest entry is 2^PERRON_BITS
INTERLACING_TOL = 1e-8


class NumericFailure(RuntimeError):
    """A numeric routine failed to converge or certify; details in the message."""


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    perron: np.ndarray
    residual: float
    method: str


def rho_numeric(g: Graph) -> float:
    """Largest adjacency eigenvalue by the dense symmetric solver."""
    return float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])


def perron_pair(g: Graph, tol: float = RESIDUAL_TOL) -> SpectralResult:
    """Perron root and positive unit eigenvector by power iteration.

    Iterates on A + I so bipartite graphs (where +-rho are both extreme)
    still converge; the shift is removed from the reported value.  The
    residual is the infinity norm of ``A x - rho x``.
    """
    if not 0 < tol < np.inf:
        raise InvalidParameterError(f"tolerance must be positive and finite, got {tol}")
    if not is_connected(g):
        raise InvalidInputError("perron_pair requires a connected graph")
    n = g.n
    a = g.adjacency_matrix()
    shifted = a + np.eye(n)
    x = np.full(n, 1.0 / np.sqrt(n))
    rho = 0.0
    for _ in range(POWER_MAX_ITER):
        y = shifted @ x
        x = y / np.linalg.norm(y)
        ax = a @ x
        rho = float(x @ ax)
        residual = float(np.max(np.abs(ax - rho * x)))
        if residual <= tol:
            if np.min(x) <= 0.0:
                raise NumericFailure("power iteration produced a non-positive vector")
            return SpectralResult(rho, x, residual, "power")
    raise NumericFailure(
        f"power iteration did not reach residual {tol} in {POWER_MAX_ITER} iterations "
        f"(n={n}, last rho={rho})"
    )


def full_spectrum(g: Graph) -> np.ndarray:
    """All adjacency eigenvalues, descending, with an eigenpair residual check."""
    if g.n > DENSE_CAP:
        raise InvalidInputError(f"dense spectrum capped at n = {DENSE_CAP}")
    a = g.adjacency_matrix()
    vals, vecs = np.linalg.eigh(a)
    residual = float(np.max(np.abs(a @ vecs - vecs * vals)))
    if residual > 1e-9 * max(g.n, 1):
        raise NumericFailure(f"eigensolver residual {residual} too large for n={g.n}")
    return vals[::-1].copy()


# ---------------------------------------------------------------------------
# exact characteristic polynomial


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coefficients constant-first."""

    coeffs: tuple[int, ...]

    def serialize(self) -> str:
        return xp.poly_to_line(self.coeffs)


# the four largest primes below 2^55
CHARPOLY_PRIMES = (2**55 - 55, 2**55 - 67, 2**55 - 99, 2**55 - 127)


def _coeff_bound(n: int, delta: int) -> int:
    """max_k C(n, k) * ceil(delta^(k/2)): a bound on every |c_k| of an
    order-``n`` graph of maximum degree ``delta``."""
    best = 0
    for k in range(n + 1):
        h = delta**k
        r = isqrt(h)
        best = max(best, comb(n, k) * (r + (r * r < h)))
    return best


def _faddeev_mod(a: np.ndarray, p: int) -> list[int]:
    """Faddeev-LeVerrier coefficients c_1..c_n of det(xI - A), modulo ``p``."""
    n = len(a)
    m, prod = a.copy(), np.empty_like(a)
    diag = m.reshape(-1)[:: n + 1]  # a view: M + cI is one in-place add
    c = -int(diag.sum()) % p
    cs = [c]
    for k in range(2, n + 1):
        diag += c
        np.matmul(a, m, out=prod)
        np.remainder(prod, p, out=m)
        c = -int(diag.sum()) * pow(k, -1, p) % p
        cs.append(c)
    return cs


def char_poly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the adjacency matrix.

    Faddeev-LeVerrier, ``M <- A (M + c_{k-1} I)`` and ``c_k = -tr(M) / k``,
    run in numpy int64 modulo primes just below 2^55, then rebuilt by CRT.
    Capped at n = 64.  The laws that make it exact:

    * Overflow: A is 0/1 and M is reduced mod p after each step, so the
      entries of ``M + cI`` lie in [0, 2p) and those of the product below
      2 * 64 * p < 2^63: int64 never wraps.
    * Division: p > 64 >= k, so every step index is invertible mod p.
    * Range: c_k is (-1)^k times the sum of the C(n, k) principal k x k
      minors, and by Hadamard's inequality each has |det| <= delta^(k/2)
      (rows of at most delta ones).  Primes are added until their product
      exceeds twice ``max_k C(n, k) ceil(delta^(k/2))``, so the symmetric CRT
      residue is c_k itself.  The lemma graphs need one prime and n = 64
      at most four.

    The result is checked: the coefficient of x^(n-1) is -tr A = 0 and that
    of x^(n-2) is minus the edge count.
    """
    n = g.n
    if n > EXACT_CAP:
        raise InvalidInputError(f"exact characteristic polynomial capped at n = {EXACT_CAP}")
    a = g.adjacency_matrix().astype(np.int64)
    bound = 2 * _coeff_bound(n, max(g.degrees()))
    coeffs, modulus = [0] * n, 1
    for p in CHARPOLY_PRIMES:
        # Garner: the lift of (x mod modulus, r mod p) into [0, modulus * p)
        inv = pow(modulus, -1, p)
        coeffs = [x + (r - x) * inv % p * modulus for x, r in zip(coeffs, _faddeev_mod(a, p))]
        modulus *= p
        if modulus > bound:
            break
    coeffs = [x - modulus if 2 * x > modulus else x for x in coeffs]
    if coeffs[0] or (n > 1 and coeffs[1] != -g.edge_count):
        raise NumericFailure(f"char_poly: trace check failed (n={n}, edges={g.edge_count})")
    return CharPoly(tuple(reversed([1] + coeffs)))


# ---------------------------------------------------------------------------
# certified brackets


@dataclass(frozen=True)
class RhoBracket:
    """Rational interval (lo, hi] with an exact proof about the top root rho.

    What is proved depends on the source.  ``rho_bracket``'s is isolating:
    rho is the only root of the characteristic polynomial in (lo, hi], and
    none lies above.  ``analytic.hub_bracket`` and ``analytic.family_bracket``
    only hold rho, lo < rho <= hi; lambda_2 may lie inside as well.
    """

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi}]"


def _dyadic(x: float) -> Fraction:
    return Fraction(round(x * (1 << 24)), 1 << 24)


class _Certificate:
    """One radius's certificate: ``bounds``, an exact ``(lo, hi)`` with
    lo <= rho <= hi whose upper end may be None, and, the first time a
    comparison needs them, an exact characteristic polynomial ``poly`` with
    its isolating bracket ``(lo, hi]``.  A subclass sets ``bounds`` and
    ``poly = None`` and gives ``_seed``: the polynomial, a seed window and a
    bound U on the absolute value of every root.

    Invariant: the top root rho is the only root of the characteristic
    polynomial p in ``(lo, hi]``, and no root lies above ``hi``.  The law:

    * The graph is connected, so rho is simple (Perron-Frobenius); p is
      monic, so p < 0 just below rho and p > 0 above it.  Inside an
      isolating bracket, p(x) >= 0 exactly when x >= rho, so one sign
      evaluation places rho on one side of a point; an integer rho becomes
      ``hi`` once a midpoint lands on it.
    * No root lies above ``hi``, so rho is in ``(mid, hi]`` exactly when
      that interval holds any root: a root count sheds lower roots soundly
      even when lambda_2 lies inside the bracket.  p is real-rooted, so the
      count (Descartes' rule on the Taylor coefficients) is exact with
      multiplicity at every endpoint, a multiple root included; since rho
      is simple, a count of one means the bracket holds rho alone.
    * Every root lies in ``(-U, U)``, so Descartes' rule gives V(U) = 0 and
      V(-U) = deg p with no count: the roots above ``hi`` number V(hi), and
      widening ``hi`` to U, or ``lo`` to -U, restores the invariant when
      the seed misses rho.  Isolation costs two counts, V(hi) and V(lo),
      unless the seed window holds lower roots.
    """

    __slots__ = ("bounds", "poly", "lo", "hi")

    def isolate(self) -> None:
        """Build the polynomial and its isolating bracket from the seed."""
        if self.poly is not None:
            return
        p, lo, hi, upper = self._seed()
        self.poly = p
        if xp.variations_at(p, hi):  # roots above hi
            hi = upper
        count = xp.variations_at(p, lo)
        if not count:
            lo, count = -upper, len(p) - 1
        while count > 1:
            mid = (lo + hi) / 2
            above = xp.variations_at(p, mid)
            if above:
                lo, count = mid, above
            else:
                hi = mid
        self.lo, self.hi = lo, hi

    def refine(self, width: Fraction) -> None:
        """Bisect the isolating bracket by signs of p down to ``width``."""
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            if xp.sign_at(self.poly, mid) >= 0:
                self.hi = mid
            else:
                self.lo = mid


class _CertifiedRho(_Certificate):
    """A graph's certificate.  Construction makes one ``eigh``: the float
    radius ``guess`` and the exact Perron ``bounds``, whose upper end is None
    when the rounded vector is not positive.  The polynomial is ``char_poly``,
    seeded by a window of 2**-20 beside ``guess``, with U = 1 + max degree.
    """

    __slots__ = ("graph", "guess")

    def __init__(self, g: Graph):
        if not is_connected(g):
            raise InvalidInputError("certified radius requires a connected graph")
        a = g.adjacency_matrix()
        vals, vecs = np.linalg.eigh(a)
        self.graph = g
        self.guess = float(vals[-1])
        self.bounds = _perron_bracket(a, vecs[:, -1])
        self.poly = None

    def _seed(self):
        g = self.graph
        p = char_poly(g).coeffs
        x = _dyadic(self.guess)
        step = Fraction(1, 1 << 20)
        lo, hi = (x - step, x) if xp.sign_at(p, x) >= 0 else (x, x + step)
        return p, lo, hi, Fraction(1 + max(g.degrees()) if g.edge_count else 1)


def _bracket_width(width: Fraction | float) -> Fraction:
    """``width`` as a Fraction, refused unless finite (any int is) and positive."""
    if not (isinstance(width, (int, Fraction)) or isfinite(width)) or width <= 0:
        raise InvalidParameterError(f"bracket width must be finite and positive, got {width}")
    return Fraction(width)


def rho_bracket(g: Graph, width: Fraction | float = Fraction(1, 10**12)) -> RhoBracket:
    """Certified rational bracket of at most the given width around the top root.

    The certificate is exact: root counts show one simple root inside
    ``(lo, hi]`` and none between ``hi`` and the degree bound ``1 + max_deg``.
    """
    w = _bracket_width(width)
    if g.n > EXACT_CAP:  # refused before the eigensolve
        raise InvalidInputError(f"exact characteristic polynomial capped at n = {EXACT_CAP}")
    cert = _CertifiedRho(g)
    cert.isolate()
    cert.refine(w)
    return RhoBracket(cert.lo, cert.hi)


def _perron_bracket(a: np.ndarray, v: np.ndarray) -> tuple[Fraction, Fraction | None]:
    """Exact ``(lo, hi)`` around rho from adjacency ``a`` and a float Perron
    vector ``v``; ``hi`` is None when the rounded vector has a zero entry.

    x is ``|v|`` scaled so that its largest entry is 2^PERRON_BITS, then
    rounded.  Ax is exact in int64 (its entries stay below n 2^PERRON_BITS),
    and the rest is Python ints.  lo = x^T A x / x^T x is a Rayleigh
    quotient, so lo <= rho for every non-zero x (A is symmetric), and
    hi = max_i (Ax)_i / x_i bounds rho from above for every positive x
    (Collatz-Wielandt), so the bracket is exact however rough v is: only
    its width depends on v.  A rounded entry of 0 voids only the upper
    bound.
    """
    m = np.abs(v)
    xv = np.rint(m * (2.0**PERRON_BITS / m.max())).astype(np.int64)
    x, ax = xv.tolist(), (a.astype(np.int64) @ xv).tolist()
    lo = Fraction(sum(s * t for s, t in zip(x, ax)), sum(t * t for t in x))
    if xv.min() <= 0:
        return lo, None
    hi_num, hi_den = ax[0], x[0]
    for num, den in zip(ax, x):
        if num * hi_den > hi_num * den:
            hi_num, hi_den = num, den
    return lo, Fraction(hi_num, hi_den)


def compare_rho_certified(
    g1: Graph | BicyclicSpec, g2: Graph | BicyclicSpec, certs: dict | None = None
) -> str:
    """Certified ordering of two spectral radii: ``"less"``, ``"greater"``,
    ``"equal"`` or ``"unresolved"``.

    An upper bound below the other radius's lower bound (``bounds``) gives a
    strict verdict.  Otherwise a root of the integer gcd in the overlap of
    the two isolating brackets gives "equal"; with none, the radii differ,
    and both brackets are bisected until they are disjoint.  The module
    docstring gives the laws.

    ``certs`` maps each key to its certificate.  A graph (by labelled
    adjacency) missing from it gets a ``_CertifiedRho``; a two-cycle core
    comes keyed by its spec with its ``analytic.FamilyCertificate``
    (``verify.compare_families``).  A caller that makes many comparisons
    passes one dict for the length of its call, so each radius gets one
    certificate and at most one polynomial.  A verdict is a fact about the
    two radii, so it does not depend on which comparison refined a bracket
    first.
    """
    certs = {} if certs is None else certs
    for g in (g1, g2):
        if g not in certs:
            certs[g] = _CertifiedRho(g)
    c1, c2 = certs[g1], certs[g2]
    (lo1, hi1), (lo2, hi2) = c1.bounds, c2.bounds
    if hi1 is not None and hi1 < lo2:
        return "less"
    if hi2 is not None and hi2 < lo1:
        return "greater"
    c1.isolate()
    c2.isolate()
    lo, hi = max(c1.lo, c2.lo), min(c1.hi, c2.hi)
    if lo < hi and xp.count_roots_in(xp.poly_gcd(c1.poly, c2.poly), lo, hi):
        return "equal"
    width = Fraction(1, 10**9)
    for _ in range(CERTIFY_MAX_ROUNDS):
        if c1.hi <= c2.lo:
            return "less"
        if c2.hi <= c1.lo:
            return "greater"
        c1.refine(width)
        c2.refine(width)
        width /= 1 << 16
    return "unresolved"


def interlacing_holds(g: Graph, subset) -> bool:
    """Check eigenvalue interlacing for the induced subgraph on ``subset``."""
    vs = sorted(set(subset))
    if not vs:
        raise InvalidParameterError("subset must be nonempty")
    lam = full_spectrum(g)
    mu = full_spectrum(g.subgraph(vs))
    n, m = g.n, len(vs)
    for i in range(m):
        if not (lam[i] >= mu[i] - INTERLACING_TOL and mu[i] >= lam[n - m + i] - INTERLACING_TOL):
            return False
    return True
