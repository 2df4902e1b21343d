"""Exact integer polynomial arithmetic for certified root work.

Polynomials are tuples of Python ints in ascending order (constant term
first).  Everything here is exact: sign evaluation at rationals, root
counts in ``(a, b]`` for real-rooted polynomials (Descartes' rule on the
Taylor coefficients, exact at any endpoint and with multiplicity), and
primitive-PRS gcd.

A count at a rational point is one Taylor shift of the integer
polynomial, never an evaluation per derivative: the shifted coefficients
are positive multiples of the Taylor coefficients, so they have the same
signs.  When every root lies in ``(-U, U)``, Descartes' rule gives
``V(U) = 0`` and ``V(-U) = deg p`` without a count.
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
    """A non-zero integer multiple of ``rem(f, g)`` over the rationals."""
    df, dg = degree(f), degree(g)
    lg = g[-1]
    r = list(f)
    for k in range(df - dg, -1, -1):
        lead = r[dg + k]
        if lead:
            for i in range(len(r)):
                r[i] *= lg
            for i in range(dg + 1):
                r[i + k] -= lead * g[i]
    return normalize(r[:dg] or [0])


def variations_at(p: IntPoly, x: Fraction) -> int:
    """Sign changes of p's Taylor coefficients at ``x``, zeros skipped.

    At ``x = num/den`` the coefficients of ``den^d p((y + num)/den)`` are the
    Taylor coefficients ``p^(k)(x)/k!`` times ``den^(d-k) > 0``, so they have
    the same signs.  They come from scaling p to ``den^d p(y/den)`` and one
    in-place Taylor shift by ``num``: d(d+1)/2 integer multiply-adds.
    """
    num, den = x.numerator, x.denominator
    d = len(p) - 1
    a = list(p)
    if den != 1:
        dp = den
        for i in range(d - 1, -1, -1):
            a[i] *= dp
            dp *= den
    if num:
        for i in range(d):
            acc = a[d]
            for j in range(d - 1, i - 1, -1):
                acc = a[j] + num * acc
                a[j] = acc
    signs = [c > 0 for c in a if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots_in(p: IntPoly, a: Fraction, b: Fraction) -> int:
    """Roots in ``(a, b]``, with multiplicity, of a real-rooted polynomial.

    ``variations_at(p, x)`` is the number of sign changes of the Taylor
    coefficients of p at x.  When every root of p is real, Descartes' rule
    is exact (Budan-Fourier): that number equals the count of roots above x,
    with multiplicity.  So V(a) - V(b) counts the roots in ``(a, b]`` at any
    endpoints, a multiple root included.  Characteristic polynomials of
    symmetric matrices, and their divisors, are real-rooted.
    """
    if a >= b:
        return 0
    return variations_at(p, a) - variations_at(p, b)


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
