import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield import EstimationError, ValidationError, bernoulli
from layerfield.asymptotics import (
    ExpProfile,
    em_ray_sum,
    log_sum_bound,
    ray_sum_bound,
    ray_total_variation,
    total_variation,
)

EXP = ExpProfile(1.0)


def geometric_exp_sum(step):
    return 1.0 / (1.0 - math.exp(-step))


def E(rate, step, order, amp=1.0):
    """Euler-Maclaurin value of the exponential ladder sum_j amp e^(-rate step j)."""
    return em_ray_sum(ExpProfile(rate, amp=amp), step, order)


def E_alt(rate, step, order):
    """The alternating ladder sum_j (-1)^j e^(-rate step j), as even minus odd images."""
    return 2.0 * E(rate, 2.0 * step, order) - E(rate, step, order)


def test_em_ray_sum_pins_exponential():
    exact = geometric_exp_sum(0.1)
    v0 = em_ray_sum(EXP, 0.1, 0)
    v1 = em_ray_sum(EXP, 0.1, 1)
    v2 = em_ray_sum(EXP, 0.1, 2)
    assert v0 == pytest.approx(10.5)
    assert abs(v0 - exact) == pytest.approx(8.33e-3, rel=0.01)
    assert v1 == pytest.approx(10.50833333, abs=5e-9)
    assert abs(v1 - exact) == pytest.approx(1.39e-6, rel=0.01)
    assert abs(v2 - exact) <= 1e-8
    assert abs(v2 - exact) == pytest.approx(3.31e-10, rel=0.05)


def test_em_ray_sum_order_improves_monotonically():
    exact = geometric_exp_sum(0.2)
    errs = [abs(em_ray_sum(EXP, 0.2, k) - exact) for k in (0, 1, 2)]
    assert errs[0] > errs[1] > errs[2]
    # residual stays within twice the first omitted correction term
    first_omitted = abs(float(bernoulli(6)) * 0.2**5 / math.factorial(6))
    assert errs[2] <= 2 * first_omitted


def test_em_ray_sum_validation():
    with pytest.raises(ValidationError):
        em_ray_sum(EXP, -0.1, 2)
    with pytest.raises(ValidationError):
        em_ray_sum(EXP, 0.1, 9)


def test_em_ray_sum_rejects_plain_callable():
    # derivatives come in closed form only: a bare function is not a profile
    with pytest.raises(ValidationError, match="ExpProfile"):
        em_ray_sum(lambda x: np.exp(-np.asarray(x, dtype=float)), 0.1, 2)


@settings(max_examples=300, deadline=None)
@given(
    z=st.floats(min_value=1e-6, max_value=6.0),
    rate=st.floats(min_value=0.01, max_value=100.0),
    order=st.integers(min_value=0, max_value=5),
)
def test_em_ray_sum_within_first_omitted_term(z, rate, order):
    # e^(-rate x) is completely monotone, so the remainder after `order`
    # corrections is at most the first omitted term |B_2p+2| z^(2p+1)/(2p+2)!
    step = z / rate
    z = rate * step
    first_omitted = abs(float(bernoulli(2 * order + 2))) * z ** (2 * order + 1) / math.factorial(2 * order + 2)
    rounding = 16 * np.finfo(float).eps * (1.0 / z + 1.0)
    assert abs(E(rate, step, order) + 1.0 / math.expm1(-z)) <= first_omitted + rounding


@settings(max_examples=300, deadline=None)
@given(
    z=st.floats(min_value=1e-6, max_value=6.0),
    rate=st.floats(min_value=0.01, max_value=100.0),
    order=st.integers(min_value=0, max_value=5),
)
def test_alternating_em_ray_sum_within_first_omitted_term(z, rate, order):
    # the even (step 2z) and odd remainders share the sign of their first
    # omitted terms T(2z) = 2^(2p+1) T(z) and T(z), so |2 R(2z) - R(z)| <= 2 |T(2z)|
    step = z / rate
    z = rate * step
    first_omitted = abs(float(bernoulli(2 * order + 2))) * z ** (2 * order + 1) / math.factorial(2 * order + 2)
    rounding = 32 * np.finfo(float).eps * (1.0 / z + 1.0)
    exact = 1.0 / (1.0 + math.exp(-z))
    assert abs(E_alt(rate, step, order) - exact) <= 2 ** (2 * order + 2) * first_omitted + rounding


def test_total_variation_basic():
    assert ray_total_variation(lambda x: np.exp(-np.asarray(x, dtype=float))) == pytest.approx(1.0, abs=1e-3)
    assert total_variation(np.sin, 0.0, 2 * math.pi) == pytest.approx(4.0, abs=1e-3)
    assert total_variation(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0, 1.0) == 0.0


def test_total_variation_monotone_under_refinement():
    fn = lambda x: np.exp(-np.asarray(x, dtype=float)) * np.cos(3 * np.asarray(x, dtype=float))

    def tv_on(n):
        t = np.linspace(0.0, 20.0, n)
        return float(np.sum(np.abs(np.diff(fn(t)))))

    values = [tv_on(n) for n in (65, 129, 257, 513)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # the stabilised estimate sits at or above any coarse nested grid
    assert total_variation(fn, 0.0, 20.0, initial=65) >= values[0]


def test_total_variation_nonstabilising_raises():
    rng = np.random.default_rng(0)

    def noisy(t):
        t = np.asarray(t, dtype=float)
        return rng.normal(size=t.shape)

    with pytest.raises(EstimationError):
        total_variation(noisy, 0.0, 1.0, max_points=2**12)


def _exp_ladder_sum(c):
    return 1.0 / (1.0 - math.exp(-c))


def _exp_cos_ladder_sum(c):
    return (1.0 / (1.0 - np.exp((1j - 1.0) * c))).real


def _lorentz_ladder_sum(c):
    # sum_{j>=0} 1/(1 + (cj)^2) = 1/2 + (pi/(2c)) coth(pi/c)
    return 0.5 + math.pi / (2.0 * c) / math.tanh(math.pi / c)


@pytest.mark.parametrize("l", [0.05, 0.1, 0.5])
@pytest.mark.parametrize(
    "fn,integral,ladder",
    [
        (lambda x: np.exp(-np.asarray(x, dtype=float)), 1.0, _exp_ladder_sum),
        (
            lambda x: np.exp(-np.asarray(x, dtype=float)) * np.cos(np.asarray(x, dtype=float)),
            0.5,
            _exp_cos_ladder_sum,
        ),
        (lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2), math.pi / 2, _lorentz_ladder_sum),
    ],
)
def test_ray_sum_bound_never_violated(fn, integral, ladder, l):
    gap = abs(integral - 2 * l * ladder(2 * l))
    assert gap <= ray_sum_bound(fn, l) * (1 + 1e-6)


def test_ray_sum_bound_exponential_case():
    # V(e^-x) = 1, so the bound at l = 0.05 is 0.1; the measured gap is about half
    bound = ray_sum_bound(lambda x: np.exp(-np.asarray(x, dtype=float)), 0.05)
    assert bound == pytest.approx(0.1, rel=1e-3)
    gap = abs(1.0 - 0.1 * geometric_exp_sum(0.1))
    assert gap == pytest.approx(0.050833, abs=1e-5)
    assert gap <= bound


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("R", [0.8, 0.9, 0.95])
def test_log_sum_bound_never_violated(p, R):
    fn = lambda x: np.asarray(x, dtype=float) ** p
    gap = abs(1.0 / p - math.log(1.0 / R**2) / (1.0 - R ** (2 * p)))
    assert gap <= log_sum_bound(fn, R) * (1 + 1e-6)


# A weighted ladder on a mode is an exponential ladder:
#   sum_j rho^j A e^(-w(x + 2lj)) = A e^(-wx) E(w - h, 2l),  rho = e^(2hl),
#   sum_j rho^j A (r R^(2j))^n   = A r^n E(n + h, s),     rho = R^(2h), s = ln(1/R^2),
# and at rho < 0 the same with E_alt.


def test_weighted_ray_asym_small_contrast():
    # k = 0.5: rho = 1/3, l = 0.1, h = ln(1/3)/0.2
    h = math.log(1.0 / 3.0) / 0.2
    exact = 1.0 / (1.0 - (1.0 / 3.0) * math.exp(-0.2))
    assert exact == pytest.approx(1.3753460304, abs=1e-9)
    v = E(1.0 - h, 0.2, 2)
    assert abs(v - exact) <= 1e-3
    assert E(1.0 - h, 0.2, 2, amp=0.0) == 0.0


def test_weighted_ray_asym_alt_large_contrast():
    # k = 3: rho = -1/2, |rho| = exp(2hl) with l = 0.1
    h = math.log(0.5) / 0.2
    exact = 1.0 / (1.0 + 0.5 * math.exp(-0.2))
    assert exact == pytest.approx(0.7095392129, abs=1e-9)
    v2 = E_alt(1.0 - h, 0.2, 2)
    # measured deviation of the order-2 truncation, frozen from the brute sum
    assert abs(v2 - exact) <= 1.5e-3
    v3 = E_alt(1.0 - h, 0.2, 3)
    assert abs(v3 - exact) <= 1.2e-4
    assert abs(v3 - exact) < abs(v2 - exact)


def test_weighted_ray_asym_matches_brute_series_multimode():
    modes = [(1.0, 1.0), (2.0, 0.5)]  # (w, A)
    l, k = 0.1, 0.5
    rho = (1 - k) / (1 + k)
    h = math.log(rho) / (2 * l)
    prof = lambda x: sum(a * math.exp(-w * x) for w, a in modes)
    brute = sum(rho**j * prof(0.3 + 2 * l * j) for j in range(2000))
    v = sum(a * math.exp(-w * 0.3) * E(w - h, 2 * l, 2) for w, a in modes)
    assert abs(v - brute) <= 1e-3


def test_weighted_radial_asym_small_contrast():
    # k = 0.5: rho = 1/3, R = 0.9, h = ln(1/3)/(2 ln 0.9)
    h = math.log(1.0 / 3.0) / (2.0 * math.log(0.9))
    assert h == pytest.approx(5.2136, abs=1e-4)
    exact = 1.0 / (1.0 - 0.27)
    s = math.log(1.0 / 0.9**2)
    v = E(1.0 + h, s, 2)
    assert abs(v - exact) <= 2e-2
    assert abs(v - exact) <= 2e-4  # frozen from the brute sum: 1.22e-4
    assert E(1.0 + h, s, 2, amp=0.0) == 0.0


def test_weighted_radial_asym_second_power():
    R, k = 0.95, 0.3
    rho = (1 - k) / (1 + k)
    h = math.log(rho) / (2 * math.log(R))
    brute = sum(rho**j * (R ** (2 * j)) ** 2 for j in range(5000))
    s = math.log(1.0 / R**2)
    v = E(2.0 + h, s, 2)
    first_omitted = abs(float(bernoulli(6)) * s**5 / math.factorial(6) * (h + 2.0) ** 5)
    assert abs(v - brute) <= first_omitted


def test_weighted_radial_asym_alt_matches_brute():
    R, k = 0.9, 4.0
    rho = (1 - k) / (1 + k)  # negative
    h = math.log(abs(rho)) / (2 * math.log(R))
    brute = sum(rho**j * R ** (2 * j) for j in range(2000))
    v = E_alt(1.0 + h, math.log(1.0 / R**2), 2)
    assert abs(v - brute) <= 2e-3
