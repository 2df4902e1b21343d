"""Closed-form spectral radius machinery for the dumbbell family B(m, p, q).

On every degree-2 stretch of B(m, p, q) the Perron vector satisfies the
three-term recurrence ``rho x_i = x_{i-1} + x_{i+1}``, whose solution with
prescribed endpoint values a, b is the hyperbolic-sine interpolant

    f_i(t, k, a, b) = (b sinh(it) + a sinh((k-i)t)) / sinh(kt),

with ``rho = 2 cosh t``.  Eliminating the stretch interiors turns the two hub
equations into a symmetric 2x2 system M(rho) (a, b)^T = 0: M(rho) is the
Schur complement of rho I - A onto the two hubs.  The interiors are paths of
radius below 2, so for rho > 2 the interior block is positive definite, and
Haynsworth's inertia additivity, In(rho I - A) = In(interior) + In(M(rho)),
makes M(rho) positive definite exactly when rho > rho(B).  This module finds
rho by bisecting that predicate, takes (a, b) from the kernel of M(rho),
rebuilds the full Perron vector in closed form, exposes the shared
equitable-partition quotient behind rho(P(m,p,m)) = rho(B(m,p,m)), and
evaluates the positive gap expression certifying rho(B(m,p,m)) < rho(B(m,m,p)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acosh, cosh, exp

import numpy as np

from .graphs import (
    Graph,
    InvalidParameterError,
    VertexLabeling,
    build_bicyclic,
    spec_B,
    spec_P,
)
from .spectral import NumericFailure

HUB_BACKWARD_TOL = 1e-11  # bound on the relative root error behind the hub residuals


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


def boundary_matrix(m: int, p: int, q: int, rho: float) -> np.ndarray:
    """Coefficient matrix M(rho) of the two hub equations of B(m, p, q).

    Row 1 is the hub-a balance ``rho a = 2 f_1(t,m,a,a) + f_1(t,p,a,b)``
    split into coefficients of a and b, row 2 the hub-b counterpart.  This is
    exactly the Schur complement of rho I - A onto the two hubs (for p = 1
    the hub edge gives the off-diagonal -1).  For rho > 2 the stretch
    interiors, paths of radius below 2, form a positive definite block, so by
    inertia additivity M(rho) is positive definite exactly when rho > rho(B).
    """
    spec_B(m, p, q)  # validates the family parameters
    if rho <= 2.0:
        raise InvalidParameterError(f"boundary matrix needs rho > 2, got {rho}")
    t = t_of_rho(rho)
    m11 = rho - 2.0 * f_value(1, t, m, 1.0, 1.0) - f_value(1, t, p, 1.0, 0.0)
    m22 = rho - 2.0 * f_value(1, t, q, 1.0, 1.0) - f_value(p - 1, t, p, 0.0, 1.0)
    off = -f_value(1, t, p, 0.0, 1.0)
    return np.array([[m11, off], [off, m22]])


def boundary_det(m: int, p: int, q: int, rho: float) -> float:
    mat = boundary_matrix(m, p, q, rho)
    return float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])


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


def rho_analytic(m: int, p: int, q: int) -> AnalyticSolution:
    """Spectral radius of B(m, p, q) from the 2x2 hub system alone.

    M(rho) is the Schur complement of rho I - A onto the hubs, and for
    rho > 2 the interior block is positive definite, so by Haynsworth's
    inertia additivity, In(rho I - A) = In(interior) + In(M(rho)), M(rho) is
    positive definite exactly when rho > rho(B).  rho(B) lies in (2, 3]: B
    properly contains a cycle and has maximum degree 3.  One bisection of
    "m11 > 0 and det M > 0" over (2, 4] therefore converges to rho(B); det M
    alone is not monotone, as it turns positive again below the second
    eigenvalue.  One Newton polish on det M follows, then the positive kernel
    direction (a, b) = (-m12, m11).  Independent of the eigensolver route;
    the hub residuals, read as a backward error, certify the solve.
    """
    spec_B(m, p, q)  # validates the family parameters
    lo, hi = 2.0, 4.0  # M(rho) is undefined at 2 and positive definite at 4
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        mat = boundary_matrix(m, p, q, mid)
        if mat[0, 0] > 0.0 and mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0] > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    # one Newton polish on the determinant
    h = 1e-7
    d0 = boundary_det(m, p, q, root)
    dp = boundary_det(m, p, q, root + h)
    dm = boundary_det(m, p, q, root - h)
    slope = (dp - dm) / (2 * h)
    if slope != 0.0:
        cand = root - d0 / slope
        if 2.0 < cand < 4.0 and abs(boundary_det(m, p, q, cand)) <= abs(d0):
            root = cand

    return _solution_at(m, p, q, root)


def _hub_state(m: int, p: int, q: int, rho: float) -> tuple[float, float, float, float]:
    """(a, b, residual a, residual b): the kernel direction of M(rho), scaled
    so min(a, b) = 1, and the signed residuals of the two hub equations."""
    mat = boundary_matrix(m, p, q, rho)
    a, b = -mat[0, 1], mat[0, 0]
    if a <= 0.0 or b <= 0.0:
        raise NumericFailure(
            f"kernel of det M is not positive at rho={rho} for B({m},{p},{q})"
        )
    scale = min(a, b)
    a, b = a / scale, b / scale
    t = t_of_rho(rho)
    return (a, b,
            rho * a - (2.0 * f_value(1, t, m, a, a) + f_value(1, t, p, a, b)),
            rho * b - (2.0 * f_value(1, t, q, b, b) + f_value(p - 1, t, p, a, b)))


def _solution_at(m: int, p: int, q: int, root: float) -> AnalyticSolution:
    """The solution at a solved ``root``, certified by its hub residuals.

    The kernel (a, b) = (-m12, m11) zeroes the first hub equation, so the
    residual vector r(rho) is (0, det M(rho) / scale) up to rounding, and
    |r| / (rho |r'|) is the relative root error that would explain it: a
    root moved by a relative d reads d.  The solve fails above
    ``HUB_BACKWARD_TOL``.  An absolute bound on |r| would reject long
    dumbbells, whose hub values differ by orders of magnitude and whose
    residuals carry rounding of that size.  The slope is one forward
    difference at h = 1e-9 rho.
    """
    a, b, res_a, res_b = _hub_state(m, p, q, root)
    h = 1e-9 * root
    _, _, moved_a, moved_b = _hub_state(m, p, q, root + h)
    rate = max(abs(moved_a - res_a), abs(moved_b - res_b)) / h
    backward = max(abs(res_a), abs(res_b)) / (root * rate)
    if not backward <= HUB_BACKWARD_TOL:
        raise NumericFailure(
            f"hub equation residuals {abs(res_a):.3g}/{abs(res_b):.3g} explain a relative "
            f"root error of {backward:.3g}, above {HUB_BACKWARD_TOL}, for B({m},{p},{q})"
        )
    return AnalyticSolution(m, p, q, t_of_rho(root), a, b, abs(res_a), abs(res_b))


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
    """Positive residual certifying rho(B(m,p,m)) < rho(B(m,m,p)).

    Solve B(m, m, p) for (sigma, a, b); transplanting its hub values onto
    B(m, p, m) via f leaves each hub equation short by exactly

        (a - b)^2 / (2 b) * sinh(t_sigma) / sinh(m t_sigma),

    which is strictly positive whenever m != p, so the transplanted vector
    is a strict super-solution and the radius of B(m, p, m) sits below sigma.
    """
    if m == p:
        raise InvalidParameterError("gap is defined for distinct parameters")
    if min(m, p) < 3:
        raise InvalidParameterError("both parameters must be at least 3")
    sol = rho_analytic(m, m, p)
    return (sol.a - sol.b) ** 2 / (2.0 * sol.b) * _sinh_ratio(sol.t, m)
