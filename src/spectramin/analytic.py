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

``rho_analytic`` solves B(m, p, q) by Newton's method on the least
eigenvalue of the float M(r) from r = 2, then proves the root: two
``hub_exceeds`` calls must bracket rho within 2**-47 of it, and
``hub_bracket`` takes over if they do not.  No verdict rests on a float
backward error.  The hub values (a, b) come from the better-conditioned
row of M(rho); the module also rebuilds the full Perron vector in closed
form, exposes the shared equitable-partition quotient behind
rho(P(m,p,m)) = rho(B(m,p,m)), and reads the paper's gap expression for
rho(B(m,p,m)) < rho(B(m,m,p)) in floats; the certified claim is the
``dumbbell-path-swap-strict`` sweep of ``verify_family_grids``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import acosh, ceil, cosh, exp, hypot, isfinite, ldexp

import numpy as np

from .graphs import (
    BicyclicSpec,
    Graph,
    InvalidParameterError,
    VertexLabeling,
    build_bicyclic,
    spec_B,
    spec_P,
)
from .spectral import NumericFailure, RhoBracket, _bracket_width

_SOLVE_BITS = 48  # the solve's exact check brackets rho on the grid of 2**-48


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


def hub_exceeds(spec: BicyclicSpec, R: int, b: int) -> bool:
    """Whether rho(core) > R / 2**b, decided exactly in integers.

    The law: the interiors of the hub-to-hub walks are paths, of radius
    below 2, so for r >= 2 the interior block of rI - A is positive
    definite, and by Haynsworth's inertia additivity
    In(rI - A) = In(interior) + In(M(r)).  Hence rho > r exactly when the
    hub Schur complement M(r) is not positive semidefinite.

    M(r) is assembled from the path determinants D_k(r), which are positive
    for r >= 2: D_k(2) = k + 1 and no root of D_k exceeds 2.  With
    r = R / 2**b the integers E_k = 2**(bk) D_k follow E_0 = 1, E_1 = R,
    E_k = R E_{k-1} - 4**b E_{k-2}, so they are positive too.  2**b M(r)
    times the product of the walks' E_L is an integer matrix with the same
    signs, and the test reads its diagonal and determinant.  For C the unused
    hub 1 keeps y = R den > 0 and z = 0, so the test reduces to x < 0.
    """
    if not (isinstance(R, int) and isinstance(b, int)) or b < 0 or R < 2 << b:
        raise InvalidParameterError(f"hub_exceeds needs ints R >= 2 << b, b >= 0, got {R!r}, {b!r}")
    walks = _hub_walks(spec)
    four = 1 << 2 * b
    e = [1, R]
    while len(e) <= max(length for _, _, length in walks):
        e.append(R * e[-1] - four * e[-2])
    den = 1
    for _, _, length in walks:
        den *= e[length]
    x = y = R * den
    z = 0
    for u, v, length in walks:
        cofactor = den // e[length]
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
    return x < 0 or y < 0 or x * y < z * z


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


def _proves_root(spec: BicyclicSpec, r: float) -> bool:
    """Whether rho lies in ((R - 1) / 2**48, (R + 2) / 2**48] for
    R = floor(r * 2**48), decided exactly; then |r - rho| <= 2**-47."""
    R = int(ldexp(r, _SOLVE_BITS))
    return (hub_exceeds(spec, R - 1, _SOLVE_BITS)
            and not hub_exceeds(spec, R + 2, _SOLVE_BITS))


def rho_analytic(m: int, p: int, q: int) -> AnalyticSolution:
    """Spectral radius and hub values of B(m, p, q) from the hub system alone.

    The Newton seed of ``_newton_root`` is proved by ``_proves_root``; if
    the proof fails, the midpoint of ``hub_bracket`` at width 2**-48 is
    used instead, so a valid spec always solves with an exact bracket
    behind it.  The kernel of the rank-one M(rho) gives (a, b) from the row
    with the larger diagonal, the one with less cancellation; for m = q the
    hub swap is an automorphism, so a = b exactly.  The residuals of the two
    hub equations, evaluated with the interpolants f, are reported and
    certify nothing.  Independent of the eigensolver route.
    """
    spec = spec_B(m, p, q)
    walks = _hub_walks(spec)
    root = _newton_root(walks)
    if not _proves_root(spec, root):
        root = float(hub_bracket(spec, Fraction(1, 1 << _SOLVE_BITS)).midpoint())
    if m == q:
        a = b = 1.0
    else:
        (x, y, z), _ = _hub_schur(walks, root)
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


# ---------------------------------------------------------------------------
# equitable partition route for the m = q case


@dataclass(frozen=True)
class QuotientMatrix:
    """Equitable-partition quotient: class list plus neighbor-count matrix."""

    matrix: np.ndarray
    classes: tuple[tuple[int, ...], ...]

    def top_eigenvalue(self) -> float:
        vals = np.linalg.eigvals(self.matrix)
        return float(np.max(vals.real))


def _symmetric_classes(lab: VertexLabeling, m: int, p: int) -> list[tuple[int, ...]]:
    """Mirror classes {hubs}, {u_j, u_{m-j}, v_j, v_{m-j}}, {w_j, w_{p-j}}."""
    classes: list[tuple[int, ...]] = [(lab.hub_a, lab.hub_b)]
    um = (lab.hub_a,) + lab.seg_m  # positions 0..m-1 along the m-part
    vq = (lab.hub_b,) + lab.seg_q
    for j in range(1, m // 2 + 1):
        cls = {um[j], um[m - j], vq[j], vq[m - j]}
        classes.append(tuple(sorted(cls)))
    w = (lab.hub_a,) + lab.seg_p + (lab.hub_b,)  # positions 0..p along the path
    for j in range(1, p // 2 + 1):
        cls = {w[j], w[p - j]}
        classes.append(tuple(sorted(cls)))
    return classes


def _quotient_of(g: Graph, classes: list[tuple[int, ...]]) -> np.ndarray:
    """Neighbor-count matrix of a partition, verifying it is equitable."""
    cls_of = {}
    for ci, cls in enumerate(classes):
        for v in cls:
            cls_of[v] = ci
    if len(cls_of) != g.n:
        raise InvalidParameterError("partition does not cover the vertex set")
    k = len(classes)
    mat = np.zeros((k, k))
    for ci, cls in enumerate(classes):
        counts0 = None
        for v in cls:
            counts = [0] * k
            for u in g.neighbors(v):
                counts[cls_of[u]] += 1
            if counts0 is None:
                counts0 = counts
            elif counts != counts0:
                raise NumericFailure(f"partition is not equitable at class {ci}")
        mat[ci] = counts0
    return mat


def quotient_matrix_symmetric(m: int, p: int) -> QuotientMatrix:
    """Shared quotient of B(m, p, m) and P(m, p, m) over the mirror classes.

    Both graphs admit the same symmetric partition with identical neighbor
    counts, which is why their spectral radii coincide; the two quotients
    are computed independently and must agree entry for entry.
    """
    if m < 3 or p < 1:
        raise InvalidParameterError(f"need m >= 3 and p >= 1, got m={m}, p={p}")
    gb, lb = build_bicyclic(spec_B(m, p, m))
    qb = _quotient_of(gb, _symmetric_classes(lb, m, p))
    gp, lp = build_bicyclic(spec_P(m, p, m))
    qp = _quotient_of(gp, _symmetric_classes(lp, m, p))
    if not np.array_equal(qb, qp):
        raise NumericFailure(f"quotients of B({m},{p},{m}) and P({m},{p},{m}) differ")
    return QuotientMatrix(qb, tuple(_symmetric_classes(lb, m, p)))


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
