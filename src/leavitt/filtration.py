"""The order statistic behind the specialization filtration.

Each monomial p q* gets three nonnegative integers relative to a
specialization: the total length n = l(p) + l(q), the special-suffix sum
s = sd(p) + sd(q), and the degree magnitude d = |l(p) - l(q)|.  The order
of the monomial is the exact rational

    ord(p q*) = n / (s + d + 1).

A monomial of order >= k certifies membership in the filtration stage at
level k; the stages shrink as k grows and the zero element sits at order
infinity.  Levels are nonnegative rationals throughout (integer levels are
a special case).

``product_precision`` answers: multiplying a tail of guaranteed order k by
a fixed monomial m, what order does every product term keep?  Minimizing
the length/suffix/degree bookkeeping of a product over all tail parameters
with n >= k(s + d + 1) gives the closed form

    min( (k - 1) / 2,  (k + n0 - d0) / (2 (s0 + d0 + 1)) ),

clamped at zero, where (n0, s0, d0) are the parameters of m.  The test
suite revalidates this closed form against a sampling oracle.

Levels are ``Fraction`` values or the one object ``INF``, which callers test
by identity: comparing a ``Fraction`` with a float runs through the
``numbers`` ABCs, and the hot paths avoid it.  Inside, precision
bookkeeping runs on integer numerator/denominator pairs and makes one
``Fraction`` for its result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .algebra import Element, Monomial
from .specialization import Specialization

INF = math.inf

Order = Union[Fraction, float]


def as_order(k) -> Order:
    """Coerce a precision level to an exact rational, or to ``INF`` itself
    for any infinite level."""
    if isinstance(k, Fraction):
        return k
    if isinstance(k, int):
        return Fraction(k)
    if k == INF:
        return INF
    raise TypeError(f"precision level must be exact, not {k!r}")


def least_level(a: Order, b: Order) -> Order:
    """The lower of two levels, comparing no ``Fraction`` with ``INF``."""
    return a if b is INF or (a is not INF and a <= b) else b


def format_order(k: Order) -> str:
    if isinstance(k, Fraction):
        return str(k)
    return "inf" if k == INF else str(Fraction(k))


def params_of(special: Specialization, m: Monomial) -> tuple[int, int, int]:
    """The filtration parameters (n, s, d) of a monomial."""
    return (
        m.total_length,
        special.special_suffix(m.left) + special.special_suffix(m.right),
        abs(m.degree),
    )


def order_key(special: Specialization, m: Monomial) -> tuple[int, int]:
    """The order of m as the integer pair (n, s + d + 1); the order is
    n / (s + d + 1), so m lies below a level K = a/b iff n b < a (s + d + 1)."""
    n, s, d = params_of(special, m)
    return n, s + d + 1


def order_of(special: Specialization, m: Monomial) -> Fraction:
    n, s, d = params_of(special, m)
    return Fraction(n, s + d + 1)


def min_order(a: Element) -> Order:
    """Least order over the support; +inf for the zero element."""
    special = a.algebra.special
    if not a.terms:
        return INF
    return min(order_of(special, m) for m in a.terms)


def tail_order(special: Specialization, a: int, b: int, m: Monomial) -> tuple[int, int]:
    """The bound (k + n - d) / (2 (s + d + 1)) of ``product_precision`` for
    k = a/b, as the pair (a + (n - d) b, 2 (s + d + 1) b)."""
    n, s, d = params_of(special, m)
    return a + (n - d) * b, 2 * (s + d + 1) * b


def product_precision(special: Specialization, k, m: Monomial) -> Order:
    """Guaranteed order of (tail of order >= k) * m and m * (same tail).

    For k = a/b the bounds are (a - b)/(2b) and ``tail_order``'s pair p/q;
    the lesser is found by cross-multiplying, (a - b) q against 2 b p, and
    clamped at zero before the one ``Fraction`` is made."""
    k = as_order(k)
    if k is INF:
        return INF
    a, b = k.numerator, k.denominator
    num, den = tail_order(special, a, b, m)
    if (a - b) * den < 2 * b * num:
        num, den = a - b, 2 * b
    return Fraction(max(num, 0), den)
