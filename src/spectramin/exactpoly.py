"""Exact integer polynomial arithmetic for certified root work.

Polynomials are tuples of Python ints in ascending order (constant term
first).  Everything here is exact: sign evaluation at rationals, Sturm
chains (valid for non-squarefree inputs too, counting distinct roots in
``(a, b]``; an endpoint at a multiple root is refused), and primitive-PRS
gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Sequence

IntPoly = tuple[int, ...]


def normalize(coeffs: Sequence[int]) -> IntPoly:
    """Drop leading zero coefficients."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: IntPoly) -> int:
    return len(p) - 1


def is_zero(p: IntPoly) -> bool:
    return all(c == 0 for c in p)


def derivative(p: IntPoly) -> IntPoly:
    if len(p) <= 1:
        return (0,)
    return normalize(tuple(i * p[i] for i in range(1, len(p))))


def content(p: IntPoly) -> int:
    g = 0
    for c in p:
        g = _int_gcd(g, abs(c))
    return g or 1


def primitive(p: IntPoly) -> IntPoly:
    g = content(p)
    return tuple(c // g for c in p) if g > 1 else normalize(p)


def sign_at(p: IntPoly, x: Fraction) -> int:
    """Exact sign of ``p(x)`` at a rational point."""
    num, den = x.numerator, x.denominator
    acc = 0
    dp = 1
    for i in range(len(p) - 1, -1, -1):
        acc = acc * num + p[i] * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def _pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder scaled to keep the sign of the true remainder.

    Returns a positive integer multiple of ``rem(f, g)`` over the rationals.
    """
    df, dg = degree(f), degree(g)
    lg = g[-1]
    r = list(f)
    mults = 0
    for k in range(df - dg, -1, -1):
        lead = r[dg + k]
        if lead:
            for i in range(len(r)):
                r[i] *= lg
            mults += 1
            for i in range(dg + 1):
                r[i + k] -= lead * g[i]
    rem = normalize(r[:dg] or [0])
    # the accumulated factor is lg**mults; keep the true remainder's sign
    if lg < 0 and mults % 2 == 1:
        rem = tuple(-c for c in rem)
    return rem


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of ``p``; counts distinct real roots even with multiplicities."""
    f0 = primitive(normalize(p))
    chain = [f0]
    d = derivative(f0)
    if not is_zero(d):
        chain.append(primitive(d))
        while degree(chain[-1]) > 0:
            r = _pseudo_rem(chain[-2], chain[-1])
            if is_zero(r):
                break
            chain.append(tuple(-c for c in primitive(r)))
    return chain


def _variations(signs: list[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def variations_at(chain: list[IntPoly], x: Fraction) -> int:
    signs = [sign_at(q, x) for q in chain]
    if signs[-1] == 0:
        raise ValueError(f"Sturm endpoint {x} is a multiple root")
    return _variations(signs)


def count_roots_in(chain: list[IntPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of the chain's polynomial in ``(a, b]``.

    V(a) - V(b) counts them whenever the chain's last member, gcd(p, p'), is
    non-zero at a and b; a simple root at an endpoint is fine.  At a
    multiple root every chain member vanishes and the count means nothing,
    so such an endpoint raises ``ValueError``.
    """
    if a >= b:
        return 0
    return variations_at(chain, a) - variations_at(chain, b)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Monic-content-normalized gcd over the integers (primitive PRS)."""
    a, b = primitive(normalize(f)), primitive(normalize(g))
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    if degree(a) < degree(b):
        a, b = b, a
    while not is_zero(b):
        r = _pseudo_rem(a, b)
        a, b = b, primitive(r) if not is_zero(r) else (0,)
    if a[-1] < 0:
        a = tuple(-c for c in a)
    return a


def poly_to_line(p: IntPoly) -> str:
    """Serialize as decimal coefficients, constant term first."""
    return " ".join(str(c) for c in p)


def poly_from_line(line: str) -> IntPoly:
    return normalize(tuple(int(t) for t in line.split()))
