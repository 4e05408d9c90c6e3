"""Blowup-model values of the twist-count series.

On an n-fold blowup with sigma = e_1 + ... + e_n and m of the classes
twisted, the model evaluates exp(t sigma) to S^m B^(n-m): each class
contributes B (untwisted) or S (twisted).  The (e_i - e_j) insertion,
with e_j the twisted class, evaluates to -Delta S^(m-1) B^(n-m-1).
Both are q-basis terms of elliptic.weight_series, as S = QB and Delta =
Q'B^2.  Powers of sigma read off the Taylor coefficients of these
series, and the moments of B and S are the single-class values of e^j.
"""

from __future__ import annotations

from functools import lru_cache

from .elliptic import blowup_functions, weight_series
from .rings import PolyX, SeriesT, factorial


@lru_cache(maxsize=None)
def moments(kind: str, j: int) -> PolyX:
    """j! times the t^j coefficient of B or S."""
    if j < 0:
        raise ValueError("moment index must be nonnegative")
    bf = blowup_functions(max(8, j + 1))
    f = bf.B if kind == "B" else bf.S
    return f[j] * factorial(j)


@lru_cache(maxsize=None)
def smb_series(n: int, twist_count: int, order: int) -> SeriesT:
    """S^m B^(n-m) = B^n Q^m at the given order, m = twist_count."""
    return weight_series(-n, 0, (twist_count % 2, 0), twist_count // 2, order)


@lru_cache(maxsize=None)
def smb_insertion_series(n: int, twist_count: int, order: int) -> SeriesT:
    """-Delta S^(m-1) B^(n-m-1) = -B^n Q' Q^(m-1), m = twist_count."""
    m = twist_count - 1
    return -weight_series(-n, 0, (m % 2, 1), m // 2, order)


def sigma_power_value(n: int, twist_count: int, p: int, order: int) -> PolyX:
    """Model value of (e_1 + ... + e_n)^p with the given number of twisted
    classes: p! times the t^p coefficient of S^m B^(n-m)."""
    if p >= order:
        raise ValueError("order too small for sigma power")
    return smb_series(n, twist_count, order)[p] * factorial(p)


def sigma_power_insertion_value(
    n: int, twist_count: int, p: int, order: int
) -> PolyX:
    """Model value of (e_1+...+e_n)^p (e_i - e_j) where exactly one of
    e_i, e_j is twisted (e_j, by convention) among twist_count twisted
    classes: p! times the t^p coefficient of -Delta S^(m-1) B^(n-m-1)."""
    if twist_count < 1 or twist_count > n - 1:
        raise ValueError("insertion needs one twisted and one untwisted class")
    if p >= order:
        raise ValueError("order too small")
    return smb_insertion_series(n, twist_count, order)[p] * factorial(p)
