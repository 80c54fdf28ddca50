from fractions import Fraction
from math import comb

import pytest

from layerfield import CapacityError, ValidationError, bernoulli

KNOWN = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_known_values_exact():
    for n, value in KNOWN.items():
        assert bernoulli(n) == value


def test_odd_indices_vanish():
    for n in range(3, 14, 2):
        assert bernoulli(n) == 0


def test_recurrence_identity_exact():
    # sum_{j=0..m} C(m+1, j) B_j == 0 in rational arithmetic
    for m in range(1, 21):
        total = sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
        assert total == 0


def test_even_sign_alternation():
    for m in range(1, 8):
        sign = (-1) ** (m + 1)
        assert sign * bernoulli(2 * m) > 0


def test_capacity_and_validation():
    with pytest.raises(CapacityError):
        bernoulli(42)
    with pytest.raises(ValidationError):
        bernoulli(-1)

