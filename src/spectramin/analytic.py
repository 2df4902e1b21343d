"""Closed-form spectral radius machinery for the two-cycle cores.

On every degree-2 stretch of B(m, p, q) the Perron vector satisfies the
three-term recurrence ``rho x_i = x_{i-1} + x_{i+1}``, whose solution with
prescribed endpoint values a, b is the hyperbolic-sine interpolant

    f_i(t, k, a, b) = (b sinh(it) + a sinh((k-i)t)) / sinh(kt),

with ``rho = 2 cosh t``.  Every two-cycle core (C, B or P) is a set of
hub-to-hub walks whose interiors are paths.  Eliminating those interiors
leaves the hub Schur complement M(r) of rI - A, 1x1 for C and 2x2 for B and
P, built from the path determinants D_k(r).  The interiors have radius
below 2, so for r >= 2 their block is positive definite, and Haynsworth's
inertia additivity, In(rI - A) = In(interior) + In(M(r)), makes M(r)
positive definite exactly when r > rho.  ``hub_exceeds`` decides rho > r
exactly in integers at a dyadic r, and ``hub_bracket`` bisects it.

``family_bracket`` gives any core (C, B or P) a proved bracket at most
2**-47 wide with no matrix: Newton's method on the least eigenvalue of the
float M(r) from r = 2 seeds rho, two ``hub_exceeds`` calls prove the seed's
bracket, and ``hub_bracket`` takes over if they do not.  The same hub
assembly, evaluated at one large power of two and read back digit by digit,
gives the exact characteristic polynomial ``family_char_poly`` (Schwenk's
path determinants, no matrix).  A ``FamilyCertificate`` holds both, so
``spectral.compare_rho_certified`` compares two cores the way it compares
two graphs (``verify.compare_families``): disjoint brackets give the strict
verdicts and the gcd of the polynomials the equalities.
``rho_analytic`` solves B(m, p, q) by the same proved Newton root, so no
verdict rests on a float backward error.  The hub values (a, b) come from
the better-conditioned row of M(rho); the module also rebuilds the full
Perron vector in closed form and reads the paper's gap expression for
rho(B(m,p,m)) < rho(B(m,m,p)) in floats; the certified claim is the
``dumbbell-path-swap-strict`` sweep of ``verify_family_grids``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import acosh, ceil, cosh, exp, hypot, isfinite, ldexp, prod

import numpy as np

from .graphs import BicyclicSpec, InvalidParameterError, spec_B
from .spectral import NumericFailure, RhoBracket, _bracket_width, _Certificate

_SOLVE_BITS = 48  # the proved brackets lie on the grid of 2**-48


def f_value(i: int, t: float, k: int, a: float, b: float) -> float:
    """The recurrence interpolant f_i(t, k, a, b), evaluated overflow-free.

    Factoring e^{kt} out of numerator and denominator leaves only
    non-positive exponents, so large kt cannot overflow.
    """
    if t <= 0.0:
        raise InvalidParameterError(f"f is defined for t > 0, got t={t}")
    if not 0 <= i <= k:
        raise InvalidParameterError(f"index i={i} outside 0..k={k}")
    num = b * (exp((i - k) * t) - exp(-(i + k) * t)) + a * (
        exp(-i * t) - exp(-(2 * k - i) * t)
    )
    den = 1.0 - exp(-2.0 * k * t)
    return num / den


def t_of_rho(rho: float) -> float:
    """Inverse of rho = 2 cosh t, i.e. log((rho + sqrt(rho^2 - 4)) / 2)."""
    if rho < 2.0:
        raise InvalidParameterError(f"need rho >= 2, got {rho}")
    return acosh(rho / 2.0)


def _sinh_ratio(t: float, k: int) -> float:
    """sinh(t) / sinh(kt) without overflow."""
    return exp((1 - k) * t) * (1.0 - exp(-2.0 * t)) / (1.0 - exp(-2.0 * k * t))


def _hub_walks(spec: BicyclicSpec) -> tuple[tuple[int, int, int], ...]:
    """The hub-to-hub walks of a two-cycle core as (u, v, interior length).

    Hub 0 is ``hub_a`` and hub 1 is ``hub_b``; C has hub 0 only.
    """
    m, p, q = spec.m, spec.p, spec.q
    if spec.family == "C":
        return (0, 0, m - 1), (0, 0, q - 1)
    if spec.family == "B":
        return (0, 0, m - 1), (1, 1, q - 1), (0, 1, p - 1)
    return (0, 1, m - 1), (0, 1, p - 1), (0, 1, q - 1)


def _hub_schur(walks, r: float) -> tuple[list[float], list[float]]:
    """M(r) and M'(r) as [m00, m11, m01] in floats, for r >= 2.

    With D_k the path determinants (D_0 = 1, D_1 = r), the ratios
    alpha_L = D_{L-1}/D_L and beta_L = 1/D_L follow alpha_L = 1/(r - alpha_{L-1})
    and beta_L = beta_{L-1} alpha_L from alpha_0 = 0, beta_0 = 1, and their
    r-derivatives follow by the chain rule.  A walk with L interior vertices
    between hubs u != v subtracts alpha_L from M_uu and M_vv and beta_L from
    M_uv; a loop at u subtracts 2 (alpha_L + beta_L) from M_uu.
    """
    mat, der = [r, r, 0.0], [1.0, 1.0, 0.0]
    for u, v, length in walks:
        al, dal, be, dbe = 0.0, 0.0, 1.0, 0.0
        for _ in range(length):
            al = 1.0 / (r - al)
            dal = (dal - 1.0) * al * al
            be, dbe = be * al, dbe * al + be * dal
        if u == v:
            mat[u] -= 2.0 * (al + be)
            der[u] -= 2.0 * (dal + dbe)
        else:
            mat[0] -= al
            mat[1] -= al
            mat[2] -= be
            der[0] -= dal
            der[1] -= dal
            der[2] -= dbe
    return mat, der


def boundary_matrix(m: int, p: int, q: int, rho: float) -> np.ndarray:
    """Hub Schur complement M(rho) of rho I - A for B(m, p, q), in floats.

    Row 1 is the hub-a balance ``rho a = 2 f_1(t,m,a,a) + f_1(t,p,a,b)``
    split into coefficients of a and b, row 2 the hub-b counterpart (for
    p = 1 the hub edge gives the off-diagonal -1).  M(rho) is positive
    definite exactly when rho > rho(B).
    """
    walks = _hub_walks(spec_B(m, p, q))
    if rho < 2.0:
        raise InvalidParameterError(f"boundary matrix needs rho >= 2, got {rho}")
    (m11, m22, off), _ = _hub_schur(walks, rho)
    return np.array([[m11, off], [off, m22]])


def boundary_det(m: int, p: int, q: int, rho: float) -> float:
    mat = boundary_matrix(m, p, q, rho)
    return float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])


def _hub_integers(spec: BicyclicSpec, R: int, b: int) -> tuple[int, int, int, int]:
    """The hub Schur complement at r = R / 2**b in integers (x, y, z, den):
    2**b den M(r) = [[x, z], [z, y]], with den the product of the walks' E_L.

    M(r) is built from the integers E_k = 2**(bk) D_k(r): E_0 = 1, E_1 = R,
    E_k = R E_{k-1} - 4**b E_{k-2}.  For C the unused hub 1 keeps
    y = R den and z = 0.
    """
    walks = _hub_walks(spec)
    four = 1 << 2 * b
    e = [1, R]
    for _ in range(max(length for _, _, length in walks) - 1):
        e.append(R * e[-1] - four * e[-2])
    ends = [e[length] for _, _, length in walks]
    den = prod(ends)
    x = y = R * den
    z = 0
    for i, (u, v, length) in enumerate(walks):
        cofactor = prod(ends[:i] + ends[i + 1:])
        prev = e[length - 1] if length else 0
        if u == v:  # 2**b * 2 (D_{L-1} + 1) / D_L
            term = 2 * four * (prev + (1 << b * (length - 1))) * cofactor
            if u:
                y -= term
            else:
                x -= term
        else:  # 2**b D_{L-1} / D_L on both diagonals, 2**b / D_L off them
            x -= four * prev * cofactor
            y -= four * prev * cofactor
            z -= (1 << b * (length + 1)) * cofactor
    return x, y, z, den


def hub_exceeds(spec: BicyclicSpec, R: int, b: int) -> bool:
    """Whether rho(core) > R / 2**b, decided exactly in integers.

    The law: the interiors of the hub-to-hub walks are paths, of radius
    below 2, so for r >= 2 the interior block of rI - A is positive
    definite, and by Haynsworth's inertia additivity
    In(rI - A) = In(interior) + In(M(r)).  Hence rho > r exactly when the
    hub Schur complement M(r) is not positive semidefinite.

    M(r) is assembled from the path determinants D_k(r), which are positive
    for r >= 2: D_k(2) = k + 1 and no root of D_k exceeds 2.  So the
    integers E_k = 2**(bk) D_k of ``_hub_integers`` are positive too, and
    its integer matrix [[x, z], [z, y]] has the signs of M(r): the test
    reads its diagonal and determinant.  For C, y > 0 and z = 0, so the
    test reduces to x < 0.
    """
    if not (isinstance(R, int) and isinstance(b, int)) or b < 0 or R < 2 << b:
        raise InvalidParameterError(f"hub_exceeds needs ints R >= 2 << b, b >= 0, got {R!r}, {b!r}")
    x, y, z, _ = _hub_integers(spec, R, b)
    return x < 0 or y < 0 or x * y < z * z


def family_char_poly(spec: BicyclicSpec) -> tuple[int, ...]:
    """det(xI - A) of a C, B or P core, constant term first, with no matrix.

    Eliminating the walk interiors gives det(xI - A) = (prod D_L) det M(x),
    that is x for C and (x y - z**2) / den for B and P in the integers of
    ``_hub_integers`` at b = 0.  They are evaluated at the one point
    X = 2**s and the value is read back in base X (Kronecker substitution).
    The digits are the coefficients: a core has n >= 4 vertices and n + 1
    edges, so sum(lambda_i**2) = 2n + 2, and AM-GM with Cauchy-Schwarz give
    |c_k| <= prod(1 + |lambda_i|) <= (1 + sqrt(5/2))**n < 2**(1.37 n), below
    2**(s - 1) for s = floor(3n/2) + 2; an integer has one expansion in
    base X with digits of absolute value below X / 2.
    """
    s = 3 * spec.order // 2 + 2
    x, y, z, den = _hub_integers(spec, 1 << s, 0)
    value = x if spec.family == "C" else (x * y - z * z) // den
    coeffs, mask, half = [], (1 << s) - 1, 1 << (s - 1)
    while value:
        digit = ((value + half) & mask) - half
        coeffs.append(digit)
        value = (value - digit) >> s
    return tuple(coeffs)


def hub_bracket(spec: BicyclicSpec, width: Fraction | float) -> RhoBracket:
    """(lo, hi] around rho(core) of width at most ``width``, by bisecting
    ``hub_exceeds`` on a dyadic grid from [2, max degree].

    rho > 2 because the core properly contains a cycle, and rho is at most
    the maximum degree: 4 at the C hub, 3 in B and P.
    """
    b = (ceil(1 / _bracket_width(width)) - 1).bit_length()  # 2**-b <= width
    lo, hi = 2 << b, (4 if spec.family == "C" else 3) << b
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hub_exceeds(spec, mid, b):
            lo = mid
        else:
            hi = mid
    return RhoBracket(Fraction(lo, 1 << b), Fraction(hi, 1 << b))


@dataclass(frozen=True)
class AnalyticSolution:
    """Solved boundary problem for one B(m, p, q): t, hub values, residuals.

    ``rho`` is derived as 2 cosh t; ``a``/``b`` are the hub entries of the
    (unnormalized) Perron vector scaled so min(a, b) = 1; the residuals are
    the absolute errors of the two hub balance equations.
    """

    m: int
    p: int
    q: int
    t: float
    a: float
    b: float
    residual_a: float
    residual_b: float

    @property
    def rho(self) -> float:
        return 2.0 * cosh(self.t)


def _newton_root(walks) -> float:
    """rho by Newton's method on the least eigenvalue mu(r) of M(r), from r = 2.

    M(r) is Loewner-increasing and concave in r with M'(r) >= I, so mu is
    increasing and concave: its tangents lie above it, every step lands at
    or below rho, and the iterates rise monotonically to rho.  The loop
    stops when a step no longer moves r by more than rounding.
    """
    r, step = 2.0, 1.0
    while step > 1e-15 * r:
        (x, y, z), (dx, dy, dz) = _hub_schur(walks, r)
        h, dh = 0.5 * (x - y), 0.5 * (dx - dy)
        s = hypot(h, z)
        mu = 0.5 * (x + y) - s
        slope = 0.5 * (dx + dy) - ((h * dh + z * dz) / s if s else hypot(dh, dz))
        step = -mu / slope
        r += step
    return r


def _proved_root(spec: BicyclicSpec) -> tuple[float, RhoBracket]:
    """rho of a core as a float root and an exact bracket (lo, hi] around it.

    With r the root of ``_newton_root`` and R = floor(r * 2**48), two
    ``hub_exceeds`` calls prove rho in ((R - 1) / 2**48, (R + 1) / 2**48],
    so |r - rho| < 2**-47.  If either call refuses, the bracket is
    ``hub_bracket``'s at width 2**-48 and the root its midpoint.
    """
    root = _newton_root(_hub_walks(spec))
    R = int(ldexp(root, _SOLVE_BITS))
    if hub_exceeds(spec, R - 1, _SOLVE_BITS) and not hub_exceeds(spec, R + 1, _SOLVE_BITS):
        return root, RhoBracket(Fraction(R - 1, 1 << _SOLVE_BITS),
                                Fraction(R + 1, 1 << _SOLVE_BITS))
    br = hub_bracket(spec, Fraction(1, 1 << _SOLVE_BITS))
    return float(br.midpoint()), br


def family_bracket(spec: BicyclicSpec) -> RhoBracket:
    """(lo, hi] around rho of a C, B or P core, at most 2**-47 wide, proved
    exactly by ``hub_exceeds`` with no matrix built."""
    return _proved_root(spec)[1]


class FamilyCertificate(_Certificate):
    """A two-cycle core's radius certificate for ``compare_rho_certified``,
    with no matrix: ``bounds`` is the core's ``family_bracket`` and the
    polynomial its ``family_char_poly``, seeded by that bracket, with U = 5
    (no degree exceeds 4).  The bracket holds rho but need not isolate it:
    lambda_2 of B(3,30,3) lies within 4e-7 of rho, so isolation counts roots
    as it does for a graph.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: BicyclicSpec):
        br = family_bracket(spec)
        self.spec = spec
        self.bounds = (br.lo, br.hi)
        self.poly = None

    def _seed(self):
        lo, hi = self.bounds
        return family_char_poly(self.spec), lo, hi, Fraction(5)


def rho_analytic(m: int, p: int, q: int) -> AnalyticSolution:
    """Spectral radius and hub values of B(m, p, q) from the hub system alone.

    The root is ``_proved_root``'s: the Newton seed when two exact hub checks
    prove it, otherwise the midpoint of ``hub_bracket`` at width 2**-48, so
    a valid spec always solves with an exact bracket behind it.  The kernel
    of the rank-one M(rho) gives (a, b) from the row with the larger
    diagonal, the one with less cancellation; for m = q the hub swap is an
    automorphism, so a = b exactly.  The residuals of the two hub
    equations, evaluated with the interpolants f, are reported and certify
    nothing.  Independent of the eigensolver route.
    """
    spec = spec_B(m, p, q)
    root, _ = _proved_root(spec)
    if m == q:
        a = b = 1.0
    else:
        (x, y, z), _ = _hub_schur(_hub_walks(spec), root)
        a, b = (-z, x) if x >= y else (y, -z)
    scale = min(a, b)
    if not (scale > 0.0 and isfinite(max(a, b) / scale)):
        raise NumericFailure(f"hub values of B({m},{p},{q}) leave the float range")
    a, b = a / scale, b / scale
    t = t_of_rho(root)
    res_a = root * a - (2.0 * f_value(1, t, m, a, a) + f_value(1, t, p, a, b))
    res_b = root * b - (2.0 * f_value(1, t, q, b, b) + f_value(p - 1, t, p, a, b))
    return AnalyticSolution(m, p, q, t, a, b, abs(res_a), abs(res_b))


def perron_closed_form(sol: AnalyticSolution) -> np.ndarray:
    """Full positive eigenvector of B(m, p, q) assembled from f alone.

    Indexed like ``build_bicyclic(spec_B(m, p, q))``: the m-cycle walk takes
    f_i(t, m, a, a), the path f_i(t, p, a, b), the q-cycle f_i(t, q, b, b).
    """
    m, p, q, t, a, b = sol.m, sol.p, sol.q, sol.t, sol.a, sol.b
    n = m + p + q - 1
    x = np.empty(n)
    for i in range(m):
        x[i] = f_value(i, t, m, a, a)
    for j in range(1, p):
        x[m + j - 1] = f_value(j, t, p, a, b)
    x[m + p - 1] = b
    for i in range(1, q):
        x[m + p - 1 + i] = f_value(i, t, q, b, b)
    return x


def path_cycle_swap_gap(m: int, p: int) -> float:
    """Numeric reading of the paper's gap for rho(B(m,p,m)) < rho(B(m,m,p)).

    Solve B(m, m, p) for (sigma, a, b); transplanting its hub values onto
    B(m, p, m) via f leaves each hub equation short by exactly

        (a - b)^2 / (2 b) * sinh(t_sigma) / sinh(m t_sigma),

    which is strictly positive whenever m != p, so the transplanted vector
    is a strict super-solution and the radius of B(m, p, m) sits below sigma.
    The float is no certificate: the certified claim is the
    ``dumbbell-path-swap-strict`` sweep of ``verify_family_grids``.
    """
    if m == p:
        raise InvalidParameterError("gap is defined for distinct parameters")
    if min(m, p) < 3:
        raise InvalidParameterError("both parameters must be at least 3")
    sol = rho_analytic(m, m, p)
    return (sol.a - sol.b) ** 2 / (2.0 * sol.b) * _sinh_ratio(sol.t, m)
