"""Parameter handling, the edge factor, the recursion, and contraction terms."""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spindecay.core import (
    ANTIFERROMAGNETIC,
    DEGENERATE,
    FERROMAGNETIC,
    SpinSystem,
    alpha,
    alpha_sym,
    ceil_log,
    classify,
    edge_factor,
    fixed_point_derivative,
    recursion_f,
    require_antiferromagnetic,
    swap_spins,
    symmetric_f,
)
from spindecay.errors import InvalidParameterError


@st.composite
def antiferro(draw):
    beta = draw(st.floats(0.0, 0.9))
    gamma = draw(st.floats(max(beta, 0.05), 6.0))
    assume(gamma >= beta and beta * gamma < 0.99)
    lam = draw(st.floats(0.01, 10.0))
    return SpinSystem(beta, gamma, lam)


def test_spin_system_validation():
    with pytest.raises(InvalidParameterError):
        SpinSystem(-0.1, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        SpinSystem(0.1, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        SpinSystem(0.1, math.nan, 1.0)
    with pytest.raises(InvalidParameterError):
        SpinSystem(0.1, math.inf, 1.0)
    s = SpinSystem(0.0, 1.0, 2.5)
    assert s.is_antiferromagnetic
    assert s.with_field(1.0).lam == 1.0


def test_classify_regimes():
    assert classify(SpinSystem(0.2, 3.0, 1.0)).kind == ANTIFERROMAGNETIC
    assert classify(SpinSystem(2.0, 3.0, 1.0)).kind == FERROMAGNETIC
    assert classify(SpinSystem(0.5, 2.0, 1.0)).kind == DEGENERATE  # product 1
    assert classify(SpinSystem(0.0, 0.0, 1.0)).kind == DEGENERATE
    # a zero gamma swaps into a perfectly good hardcore-like system
    assert classify(SpinSystem(0.5, 0.0, 1.0)).kind == ANTIFERROMAGNETIC
    cls = classify(SpinSystem(3.0, 0.2, 2.0))
    assert cls.swapped and cls.kind == ANTIFERROMAGNETIC
    assert cls.system.beta == 0.2 and cls.system.gamma == 3.0
    assert cls.system.lam == pytest.approx(0.5, rel=1e-15)


def test_swap_is_an_involution():
    s = SpinSystem(0.3, 1.7, 2.0)
    back = swap_spins(swap_spins(s))
    assert back.beta == s.beta and back.gamma == s.gamma
    assert back.lam == pytest.approx(s.lam, rel=1e-15)


def test_require_antiferromagnetic():
    require_antiferromagnetic(SpinSystem(0.0, 1.0, 1.0))
    for bad in [SpinSystem(0.5, 2.0, 1.0), SpinSystem(2.0, 3.0, 1.0),
                SpinSystem(0.5, 0.2, 1.0), SpinSystem(0.0, 0.0, 1.0)]:
        with pytest.raises(InvalidParameterError):
            require_antiferromagnetic(bad)


def test_edge_factor_endpoints_exact():
    s = SpinSystem(0.25, 2.0, 1.0)
    assert edge_factor(s, math.inf) == 0.25
    assert edge_factor(s, 0.0) == 0.5
    with pytest.raises(InvalidParameterError):
        edge_factor(s, -1.0)
    with pytest.raises(InvalidParameterError):
        edge_factor(s, math.nan)


@given(antiferro(), st.floats(0.0, 1e12), st.floats(0.0, 1e12))
def test_edge_factor_monotone_and_bounded(s, r1, r2):
    lo, hi = sorted((r1, r2))
    f_lo, f_hi = edge_factor(s, lo), edge_factor(s, hi)
    assert f_lo + 1e-15 >= f_hi
    for f in (f_lo, f_hi):
        assert s.beta - 1e-15 <= f <= 1.0 / s.gamma + 1e-12


@given(antiferro())
def test_edge_factor_limit_at_large_ratio(s):
    assert abs(edge_factor(s, 1e9) - s.beta) <= 1e-8


def test_symmetric_f_reference_value():
    s = SpinSystem(0.1, 2.0, 5.0)
    assert symmetric_f(s, 3, 1.0) == pytest.approx(0.24648148148148148, rel=1e-13)


@given(antiferro(), st.integers(0, 8), st.lists(st.floats(0.0, 100.0), max_size=8))
def test_recursion_matches_per_child_product(s, pad, xs):
    value = recursion_f(s, s.lam, xs)
    direct = s.lam
    for x in xs:
        direct *= edge_factor(s, x)
    assert value == pytest.approx(direct, rel=1e-12)
    d = len(xs)
    assert s.lam * s.beta ** d * (1 - 1e-9) <= value
    assert value <= s.lam / s.gamma ** d * (1 + 1e-9)


def test_recursion_log_path_agrees_with_direct():
    s = SpinSystem(0.2, 1.5, 2.0)
    xs = [0.7] * 40  # above the direct-product cutoff
    assert recursion_f(s, s.lam, xs) == pytest.approx(
        symmetric_f(s, 40, 0.7), rel=1e-11
    )


def test_recursion_zero_and_infinite_children():
    s = SpinSystem(0.0, 1.0, 3.0)
    # an infinite child ratio contributes the factor beta = 0 exactly
    assert recursion_f(s, s.lam, [math.inf, 1.0]) == 0.0
    assert recursion_f(s, s.lam, [0.0]) == pytest.approx(3.0)
    many = [math.inf] + [1.0] * 40
    assert recursion_f(s, s.lam, many) == 0.0
    # 31 factors of 1/gamma overflow a direct product before the zero arrives
    wide = [0.0] * 31 + [math.inf]
    assert recursion_f(SpinSystem(0.0, 1e-12, 1.0), 1.0, wide) == 0.0


def test_recursion_keeps_a_ratio_whose_partial_products_underflow():
    # 32 factors of about 1.1e-11 multiply to 1e-352 before lam_v = 1e300
    # brings the ratio back, to 2.1e-51; 33 children took the log path before
    s = SpinSystem(1e-11, 1.0, 1.0)
    want = math.exp(math.log(1e300) + 32 * math.log(11.0 / (1e12 + 1.0)))
    got = recursion_f(s, 1e300, [1e12] * 32)
    assert 0.0 < got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_alpha_reference_value_and_symmetry():
    s = SpinSystem(0.1, 2.0, 5.0)
    sym = alpha_sym(s, 3, 1.0)
    assert sym == pytest.approx(0.43232228064961338, rel=1e-12)
    assert alpha(s, (1.0, 1.0, 1.0)) == pytest.approx(sym, rel=1e-12)
    assert alpha(s, ()) == 0.0


@given(antiferro(), st.integers(1, 12), st.floats(1e-6, 50.0))
def test_alpha_sym_agrees_with_general_form(s, d, x):
    assert alpha(s, (x,) * d) == pytest.approx(alpha_sym(s, d, x), rel=1e-10)


@given(st.floats(0.0, 0.8), st.floats(1.05, 6.0), st.floats(0.05, 8.0),
       st.integers(1, 20), st.floats(1e-9, 1e6))
@settings(max_examples=200)
def test_alpha_sym_below_decay_envelope(beta, gamma, lam, d, x):
    assume(beta * gamma < 0.99)
    s = SpinSystem(beta, gamma, lam)
    env = d * math.sqrt(lam / gamma ** (d + 1))
    assert alpha_sym(s, d, x) <= env + 1e-9


def test_fixed_point_derivative_formula():
    s = SpinSystem(0.0, 1.0, 1.0)
    x = 0.46557123187676803
    assert fixed_point_derivative(s, 2, x) == pytest.approx(
        0.63534439234396135, rel=1e-12
    )
    # finite-difference cross-check on the symmetric recursion
    h = 1e-7
    num = (symmetric_f(s, 2, x + h) - symmetric_f(s, 2, x - h)) / (2 * h)
    assert abs(num) == pytest.approx(fixed_point_derivative(s, 2, x), rel=1e-5)


def test_ceil_log_small_cases():
    assert ceil_log(2.0, 8) == 3
    assert ceil_log(2.0, 9) == 4
    assert ceil_log(14.0, 14) == 1
    assert ceil_log(14.0, 15) == 2
    assert ceil_log(1.5, 1) == 0


@given(st.floats(1.01, 50.0), st.integers(1, 10**6))
def test_ceil_log_is_the_smallest_sufficient_power(base, x):
    k = ceil_log(base, x)
    assert base ** k >= x * (1 - 1e-12)
    if k > 0:
        assert base ** (k - 1) < x * (1 + 1e-12)
