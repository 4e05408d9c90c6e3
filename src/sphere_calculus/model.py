"""Blowup-model series: the twist-count series and the moments.

On an n-fold blowup with sigma = e_1 + ... + e_n and m of the classes
twisted, the model evaluates exp(t sigma) to S^m B^(n-m): each class
contributes B (untwisted) or S (twisted).  The (e_i - e_j) insertion,
with e_j the twisted class, evaluates to -Delta S^(m-1) B^(n-m-1).
Both are q-basis terms of elliptic.weight_series, as S = QB and Delta =
Q'B^2.  sigma^p is p! times the t^p coefficient of the model series
(embedded._evaluate reads it there), and the moments of B and S are the
single-class values of e^j.
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
    f = weight_series(-n, 0, (m % 2, 1), m // 2, order)
    return SeriesT([-c for c in f.coeffs], order)

