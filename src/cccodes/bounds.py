"""Upper bounds on the maximum size of constant-composition codes.

All arithmetic is exact integer arithmetic; every floor expression is a true
integer floor, never floating point.
"""

from __future__ import annotations

from math import comb, factorial

from .core import Composition, _Record

__all__ = [
    "BoundValue",
    "johnson_bound",
    "per_position_bound_31",
    "size_bound_general",
    "upper_22",
    "upper_31",
    "upper_bound",
]


class BoundValue(_Record):
    __slots__ = ("value", "provenance", "caveat")
    value: int
    provenance: str  # general | johnson | closed-form-U | per-position
    caveat: str | None  # set when the formula carries an asymptotic proviso

    def __init__(self, value: int, provenance: str, caveat: str | None = None) -> None:
        super().__init__(value, provenance, caveat)


def _norm_tuple(weights: tuple[int, ...]) -> tuple[int, ...]:
    """Drop zero entries and sort non-increasing (neither affects the maximum size)."""
    return tuple(sorted((x for x in weights if x > 0), reverse=True))


def size_bound_general(n: int, d: int, comp: Composition) -> BoundValue | None:
    """Exact maximum size in the four boundary cases; None when not applicable.

    Cases: d <= 2 (everything is a code), d = 2w-1 (valid for large n, flagged
    with a caveat), d = 2w (floor(n/w)), d >= 2w+1 (a single codeword).
    """
    if not comp.is_normalized:
        raise ValueError(f"composition not normalized: {comp}")
    w = comp.weight
    if n < w:
        raise ValueError(f"n={n} smaller than weight {w}")
    if d <= 2:
        multinomial = factorial(w)
        for wi in comp.weights:
            multinomial //= factorial(wi)
        return BoundValue(comb(n, w) * multinomial, "general")
    if d == 2 * w - 1:
        return BoundValue(n // comp.weights[0], "general",
                          caveat="valid only for sufficiently large n")
    if d == 2 * w:
        return BoundValue(n // w, "general")
    if d >= 2 * w + 1:
        return BoundValue(1, "general")
    return None


def johnson_bound(n: int, d: int, comp: Composition) -> BoundValue:
    """Recursive bound floor((n/w1) * A(n-1, d, [w1-1, ...])), closed by the
    boundary cases of :func:`size_bound_general`."""
    caveat = None

    def rec(n: int, weights: tuple[int, ...]) -> int:
        nonlocal caveat
        if not weights:
            return 1
        base = size_bound_general(n, d, Composition(weights))
        if base is not None:
            if base.caveat:
                caveat = base.caveat
            return base.value
        sub = rec(n - 1, _norm_tuple((weights[0] - 1, *weights[1:])))
        return n * sub // weights[0]

    return BoundValue(rec(n, _norm_tuple(comp.weights)), "johnson", caveat)


def upper_22(n: int) -> BoundValue:
    """Closed form floor((n/2) * floor((n-1)/3)) for composition [2,2], d=6.

    Two words with the same symbol at a point x agree at x, so at distance 6
    they share no other point.  So at most floor((n-1)/3) words carry each
    symbol at x, and counting the 4 points of each word over the n points
    and the two symbols bounds the size by n * 2 * floor((n-1)/3) / 4."""
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    return BoundValue(n * ((n - 1) // 3) // 2, "closed-form-U")


def upper_31(n: int) -> BoundValue:
    """Closed form for composition [3,1], d=6, refined by residue of n mod 9."""
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    t, i = divmod(n, 9)
    if i == 4:
        return BoundValue(9 * t * t + 6 * t + 1 + t // 4, "closed-form-U")
    if i == 5:
        return BoundValue(9 * t * t + 7 * t + 1 + (t + 1) // 4, "closed-form-U")
    if i == 7:
        return BoundValue(9 * t * t + 11 * t + 3 + (t + 1) // 2, "closed-form-U")
    return BoundValue(n * ((n - 1) // 3) // 3, "closed-form-U")


def per_position_bound_31(n: int) -> BoundValue:
    """Independent re-derivation of the [3,1] bound by per-position counting.

    Each position carries x words with symbol 1 and y with symbol 2 subject to
    3x <= n-1 and 2x+3y <= n-1; enumerating the maximum of x+y and averaging
    over the n positions bounds the code size by floor(n*S/4).
    """
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    best = 0
    x = 0
    while 3 * x <= n - 1:
        y = (n - 1 - 2 * x) // 3
        if y >= 0:
            best = max(best, x + y)
        x += 1
    return BoundValue(n * best // 4, "per-position")


def upper_bound(n: int, comp: Composition) -> BoundValue:
    """The sharpest shipped upper bound for distance 6 and the two catalog
    compositions; falls back to the Johnson recursion otherwise."""
    if comp.weights == (2, 2):
        return upper_22(n)
    if comp.weights == (3, 1):
        return upper_31(n)
    return johnson_bound(n, 6, comp)
