"""Exact Bernoulli numbers from the z/(e^z - 1) generating function."""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from ..errors import CapacityError, ValidationError

if TYPE_CHECKING:
    from fractions import Fraction

#: largest index kept in the shared table
TABLE_LIMIT = 40

_cache: list[Fraction] = []


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number as an exact rational (B_1 = -1/2 convention).

    Computed once via the recurrence sum_{j=0..m} C(m+1, j) B_j = 0 and
    cached; indices above TABLE_LIMIT raise a CapacityError.  `fractions`
    is imported on the first call, so that importing the asymptotics does
    not load it.
    """
    if n < 0:
        raise ValidationError("Bernoulli index must be >= 0")
    if n > TABLE_LIMIT:
        raise CapacityError(f"Bernoulli table capped at B_{TABLE_LIMIT}")
    if not _cache:
        from fractions import Fraction

        _cache.append(Fraction(1))
    while len(_cache) <= n:
        m = len(_cache)
        s = sum(comb(m + 1, j) * _cache[j] for j in range(m))
        _cache.append(-s / (m + 1))
    return _cache[n]
