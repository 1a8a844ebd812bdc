"""Fixed points, uniqueness decisions, contraction rates and thresholds."""
from __future__ import annotations

import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spindecay import uniqueness
from spindecay.core import SpinSystem, ceil_log, symmetric_map
from spindecay.errors import (
    InvalidParameterError,
    NoThresholdError,
    UniquenessError,
)
from spindecay.estimator import estimate_marginal
from spindecay.graphs import from_edges, random_regular
from spindecay.uniqueness import (
    _contraction_alpha,
    choose_M,
    contraction_bound,
    derivative_unit_roots,
    find_non_monotone_witness,
    fixed_point,
    gamma_threshold,
    hardcore_threshold,
    is_unique_up_to,
    soft_thresholds,
    universal_lambda_threshold,
)

HARDCORE = SpinSystem(0.0, 1.0, 1.0)


@st.composite
def antiferro(draw):
    beta = draw(st.floats(0.0, 0.85))
    gamma = draw(st.floats(max(beta, 0.1), 5.0))
    assume(gamma >= beta and beta * gamma < 0.98)
    lam = draw(st.floats(0.02, 8.0))
    return SpinSystem(beta, gamma, lam)


def test_fixed_point_reference_values():
    r1 = fixed_point(HARDCORE, 1)
    assert r1.x_hat == pytest.approx(0.61803398874989485, rel=1e-12)
    assert r1.derivative_abs == pytest.approx(0.38196601125010515, rel=1e-10)
    r2 = fixed_point(HARDCORE, 2)
    assert r2.x_hat == pytest.approx(0.46557123187676803, rel=1e-12)
    assert r2.derivative_abs == pytest.approx(0.63534439234396135, rel=1e-10)


@given(antiferro(), st.integers(1, 40))
@settings(max_examples=150)
def test_fixed_point_satisfies_the_recursion(s, d):
    r = fixed_point(s, d)
    assert symmetric_map(s, d)(r.x_hat) == pytest.approx(r.x_hat, rel=1e-8)
    assert r.residual <= 1e-8 * max(1.0, r.x_hat)


def test_uniqueness_flips_at_the_hardcore_threshold():
    assert is_unique_up_to(SpinSystem(0.0, 1.0, 3.9), 3).unique
    bad = is_unique_up_to(SpinSystem(0.0, 1.0, 4.1), 3)
    assert not bad.unique
    assert bad.violating is not None and bad.violating.d == 2


def test_uniqueness_delta_validation():
    with pytest.raises(InvalidParameterError):
        is_unique_up_to(HARDCORE, 1)
    with pytest.raises(InvalidParameterError):
        is_unique_up_to(HARDCORE, 2.5)


def test_universal_uniqueness_requires_growing_gamma():
    res = is_unique_up_to(HARDCORE, math.inf)
    assert not res.unique
    assert "gamma" in (res.reason or "")
    good = is_unique_up_to(SpinSystem(0.2, 4.0, 1.0), math.inf)
    assert good.unique and good.tail_start is not None


def test_envelope_tail_survives_an_overflowing_activity():
    # d*lam overflows to inf where gamma**-d underflows to 0; their product
    # was NaN, and the scan never ended
    big = sys.float_info.max
    res = is_unique_up_to(SpinSystem(0.0, big, big), math.inf)
    assert res.unique and res.tail_start == 2 and res.tail_bound == 0.0


@pytest.mark.parametrize("lam, arity", [(1e199, 197), (1e250, 248), (1e300, 298)])
def test_huge_activities_are_decided(lam, arity):
    # at small arities the fixed point, about lam*beta**d, lies past 1e200
    res = is_unique_up_to(SpinSystem(0.1, 3.5, lam), math.inf)
    assert not res.unique and res.violating.d == res.checked == arity


@pytest.mark.parametrize("s, d", [
    (SpinSystem(0.1, 3.5, 1e250), 1),
    (SpinSystem(1e-100, 1.0, 1e300), 1),  # 1e200, a hundred decades below f_d(0)
    (SpinSystem(1e-30, 1e-5, 1e300), 3),
    (SpinSystem(0.999, 1.0, sys.float_info.max), 1),  # next to the largest float
    (SpinSystem(1e-30, 1e-5, 1e300), 1),
])
def test_fixed_points_past_1e200_solve_the_recursion(s, d):
    # the bracket end grows fourfold up to the largest float, and the
    # bisection's midpoint does not overflow there
    r = fixed_point(s, d)
    assert r.x_hat > 1e199 and r.residual <= 1e-13 * r.x_hat
    assert symmetric_map(s, d)(r.x_hat) == pytest.approx(r.x_hat, rel=1e-13)
    # (beta*x + 1) * (x + gamma) overflows past about 1.3e154/sqrt(beta); the
    # derivative must not read 0.0 there
    b, g, x = Fraction(s.beta), Fraction(s.gamma), Fraction(r.x_hat)
    exact = d * (1 - b * g) * x / ((b * x + 1) * (x + g))
    assert r.derivative_abs == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_envelope_shortcut_covers_large_finite_bounds():
    res = is_unique_up_to(SpinSystem(0.2, 4.0, 1.0), 500)
    assert res.unique
    assert res.tail_start is not None
    assert res.checked < 499  # the per-arity scan was cut short


def test_gamma_just_above_one_is_decided_by_the_explicit_arities():
    # the envelope decreases only from arity 10**6 on, past delta = 4
    s = SpinSystem(0.1, 1.000001, 1.0)
    res = is_unique_up_to(s, 4)
    assert res.unique and res.tail_start is None and res.checked == 3
    # universal uniqueness fails at a small arity, found before any tail search
    res = is_unique_up_to(s, math.inf)
    assert not res.unique and res.violating.d == res.checked <= 5


def test_envelope_tail_start_is_the_first_arity_below_one():
    # the envelope d*lam/gamma**d decreases from arity floor(1/(gamma-1)) + 1
    for s in (SpinSystem(0.5, 1.05, 1.0), SpinSystem(0.2, 1.2, 2.0),
              SpinSystem(0.0, 2.0, 20.0)):
        d = math.floor(1.0 / (s.gamma - 1.0)) + 1
        while d * s.lam / s.gamma**d >= 1.0:  # reference: a one-step scan
            d += 1
        for delta in (math.inf, d + 1, d + 50):
            res = is_unique_up_to(s, delta)
            assert res.unique and res.tail_start == d, (s, delta)
            assert res.checked == d - 1
        # a finite delta at or below the tail start is checked arity by arity
        res = is_unique_up_to(s, d)
        assert res.unique and res.tail_start is None and res.checked == d - 1


def test_universal_uniqueness_matches_the_inf_threshold():
    # gamma = 2 hardcore: candidate terms 2^(d+1) d^d / (d-1)^(d+1), min 27 at d=3
    rep = hardcore_threshold(2.0, math.inf)
    assert rep.values[0] == 27.0 and rep.witness_d == 3
    assert is_unique_up_to(SpinSystem(0.0, 2.0, 26.0), math.inf).unique
    bad = is_unique_up_to(SpinSystem(0.0, 2.0, 28.0), math.inf)
    assert not bad.unique and bad.violating.d == 3


def test_contraction_entries_respect_the_derivative_ceiling():
    s = SpinSystem(0.0, 1.0, 1.0)
    cb = contraction_bound(s, 5)
    assert 0.0 < cb.alpha < 1.0 and cb.tail_start is None
    for d in range(1, 5):  # the explicitly maximised arities
        fp = fixed_point(s, d)
        alpha_d = _contraction_alpha(s, fp)
        assert alpha_d <= math.sqrt(fp.derivative_abs) + 1e-9
        assert alpha_d <= cb.alpha + 1e-15


def test_contraction_refuses_non_unique_systems():
    with pytest.raises(UniquenessError) as exc:
        contraction_bound(SpinSystem(0.0, 1.0, 4.1), 3)
    assert exc.value.violating_d == 2


def test_certificate_memos_are_bounded():
    memos = (fixed_point, is_unique_up_to, contraction_bound, choose_M)
    for memo in memos:
        memo.cache_clear()
    # the bound reads the fixed points the uniqueness check solved, arities
    # 1 to 3, from the memo
    contraction_bound(HARDCORE, 4)
    assert fixed_point.cache_info().hits == 3 == fixed_point.cache_info().misses
    # eleven arities per system overflow the fixed-point memo; gamma = 1
    # has no contraction tail, so every arity below delta is maximised
    for i in range(200):
        contraction_bound(SpinSystem(0.0, 1.0, 0.01 + i / 40000), 12)
    # more (system, alpha) pairs than the truncation-base memo holds
    for i in range(100):
        choose_M(SpinSystem(0.1, 3.5, 1.0 + i / 100), 0.5)
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    for memo in (fixed_point, choose_M):
        assert memo.cache_info().currsize == memo.cache_info().maxsize


def test_certificate_records_keep_a_count_not_every_arity():
    # gamma = 1 has no tail, so both scans solve all 2999 arities below delta
    s = SpinSystem(0.0, 1.0, 1e-4)
    uni, cb = is_unique_up_to(s, 3000), contraction_bound(s, 3000)
    assert uni.unique and uni.checked == 2999 and cb.tail_start is None
    for record in (uni, cb):
        assert len(pickle.dumps(record)) < 1000


def test_contraction_universal_reference_value():
    cb = contraction_bound(SpinSystem(0.2, 4.0, 1.0), math.inf)
    assert cb.alpha == pytest.approx(0.023796041628638284, rel=1e-6)
    assert cb.tail_start is not None and cb.tail_bound <= cb.alpha + 1e-12


def test_a_large_finite_delta_stops_at_the_contraction_tail():
    s = SpinSystem(0.2, 4.0, 1.0)
    inf, big = contraction_bound(s, math.inf), contraction_bound(s, 200000)
    assert big.alpha == inf.alpha
    assert big.tail_start == inf.tail_start is not None and big.tail_start - 1 < 10
    # a delta at or below the tail still maximises every arity below it
    for delta in range(2, inf.tail_start + 1):
        cb = contraction_bound(s, delta)
        assert cb.tail_start is None
        assert cb.alpha == max(_contraction_alpha(s, fixed_point(s, d)) for d in range(1, delta))


@pytest.mark.parametrize("s, delta", [
    (SpinSystem(0.1, 3.5, 1.0), 80), (SpinSystem(0.0, 2.0, 5.0), 80),
    (SpinSystem(0.3, 1.5, 0.5), 80), (SpinSystem(0.0, 1.2, 0.3), 80),
    (SpinSystem(0.0, 1.001, 1e-3), 4000),  # the tail starts at arity 3149
], ids=["s0", "s1", "s2", "s3", "s4"])
def test_contraction_tail_equals_maximising_every_arity(s, delta):
    cb = contraction_bound(s, delta)
    assert cb.tail_start is not None and cb.tail_start < delta
    plain = [_contraction_alpha(s, fixed_point(s, d)) for d in range(1, delta)]
    assert cb.alpha == max(plain) == max(plain[:cb.tail_start - 1])


def test_a_contraction_tail_past_arity_60000_certifies():
    # the bound sqrt(d*lam/gamma**(d+1)) decreases only from arity 20 000 on
    cb = contraction_bound(SpinSystem(0.0, 1.00005, 1e-5), math.inf)
    assert cb.alpha == pytest.approx(0.16451646348342297, rel=1e-12)
    assert cb.tail_start == 62927 and cb.tail_bound <= cb.alpha


def test_a_derivative_tie_within_rounding_still_contracts():
    # hardcore gamma = 0.5 at lam = 0.5 = lam_c(0.5, 2): the arity-2 derivative
    # solves to just below 1, and the computed contraction maximum rounds to
    # 1.0; the arity's alpha is the derivative's square root, below 1
    s = SpinSystem(0.0, 0.5, 0.5)
    uni = is_unique_up_to(s, 3)
    fp = fixed_point(s, 2)
    assert uni.unique and uni.checked == 2 and fp.derivative_abs < 1.0
    cb = contraction_bound(s, 3)
    assert cb.alpha == _contraction_alpha(s, fp) == math.sqrt(fp.derivative_abs) < 1.0


def test_hardcore_threshold_closed_forms():
    assert hardcore_threshold(1.0, 3).values[0] == pytest.approx(4.0, abs=1e-12)
    assert hardcore_threshold(1.0, 4).values[0] == pytest.approx(27 / 16, abs=1e-12)
    assert hardcore_threshold(1.0, 5).values[0] == pytest.approx(256 / 243, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        hardcore_threshold(1.0, 2)
    with pytest.raises(NoThresholdError):
        hardcore_threshold(1.0, math.inf)
    with pytest.raises(NoThresholdError):
        hardcore_threshold(0.9, math.inf)


@pytest.mark.parametrize("gamma, delta", [(1.0, 1000), (0.9, 300), (0.5, 500)])
def test_hardcore_thresholds_past_arity_60_match_the_closed_form(gamma, delta):
    # for gamma <= 1 the minimiser is the largest arity, d = delta - 1
    rep = hardcore_threshold(gamma, delta)
    d, g = delta - 1, Fraction(gamma)
    exact = g ** (d + 1) * Fraction(d) ** d / Fraction(d - 1) ** (d + 1)
    assert rep.witness_d == d
    assert rep.values[0] == pytest.approx(float(exact), rel=1.5e-13, abs=0.0)


def test_derivative_unit_roots_identities():
    beta, gamma, d = 0.2, 2.0, 5  # admissible from d = 5 on
    r = derivative_unit_roots(beta, gamma, d)
    assert r.x_low < r.x_high
    assert r.x_low * r.x_high == pytest.approx(gamma / beta, rel=1e-12)
    for x, lam in ((r.x_low, r.lam_low), (r.x_high, r.lam_high)):
        s = SpinSystem(beta, gamma, lam)
        assert symmetric_map(s, d)(x) == pytest.approx(x, rel=1e-9)
    with pytest.raises(InvalidParameterError):
        derivative_unit_roots(0.5, 1.9, 2)  # discriminant negative
    # hardcore: the one root of d*x = x + gamma
    r = derivative_unit_roots(0.0, gamma, d)
    assert r.x_low == gamma / (d - 1) and r.x_high == r.lam_high == math.inf
    s = SpinSystem(0.0, gamma, r.lam_low)
    assert symmetric_map(s, d)(r.x_low) == pytest.approx(r.x_low, rel=1e-12)


def test_unit_root_activities_stay_finite_past_exp_700():
    # lam_high = exp(701.27) = 3.62e304 lies inside the float range
    r = derivative_unit_roots(1e-3, 1.0, 100)
    x = r.x_high
    assert r.lam_high == pytest.approx(x * ((x + 1.0) / (1e-3 * x + 1.0)) ** 100, rel=1e-11)
    assert r.lam_high < math.inf


def test_soft_thresholds_bracket_the_non_unique_window():
    rep = soft_thresholds(0.1, 2.0, 6)
    assert not rep.all_lambda_unique
    lo, hi = rep.values
    assert lo < hi
    assert is_unique_up_to(SpinSystem(0.1, 2.0, lo * 0.999), 6).unique
    assert not is_unique_up_to(SpinSystem(0.1, 2.0, math.sqrt(lo * hi)), 6).unique
    assert is_unique_up_to(SpinSystem(0.1, 2.0, hi * 1.001), 6).unique


def test_soft_thresholds_all_lambda_unique_regime():
    rep = soft_thresholds(0.9, 0.9, 10)  # sqrt(beta*gamma) = 0.9 > 0.8
    assert rep.all_lambda_unique
    assert rep.values == ()


def test_ising_duality_spot_check():
    rep = soft_thresholds(0.4, 0.4, 8)
    lo, hi = rep.values
    assert lo * hi == pytest.approx(1.0, abs=1e-12)


def test_touching_arities_give_point_windows():
    # (d-1) = sqrt(beta*gamma)*(d+1) holds exactly at arity 19 for 0.9, 0.9;
    # its discriminant rounds below 0 there
    r = derivative_unit_roots(0.9, 0.9, 19)
    assert r.x_low == r.x_high and r.lam_low == r.lam_high
    with pytest.raises(InvalidParameterError, match="first holds at d = 19"):
        derivative_unit_roots(0.9, 0.9, 18)
    for beta, delta in ((0.9, 20), (1 / 3, 3), (0.5, 4)):
        rep = soft_thresholds(beta, beta, delta)
        assert not rep.all_lambda_unique and rep.witness_d == delta - 1
        lo, hi = rep.values
        assert lo == hi
    lo, hi = soft_thresholds(0.9, 0.9, 24).values
    assert lo < hi and lo * hi == pytest.approx(1.0, abs=1e-12)


def test_an_admissible_arity_is_decided_without_a_search(monkeypatch):
    # threshold searches ask for the roots at every probe; admissibility is
    # one comparison there, and the start is searched for only to be named
    # in the refusal
    calls = []
    first_arity = uniqueness._first_arity
    monkeypatch.setattr(uniqueness, "_first_arity",
                        lambda *args: calls.append(args) or first_arity(*args))
    for beta, gamma, d in ((0.9, 0.9, 19), (0.9, 0.9, 10**6), (0.2, 2.0, 5), (0.0, 1.0, 2)):
        derivative_unit_roots(beta, gamma, d)
    assert calls == []
    with pytest.raises(InvalidParameterError, match="first holds at d = 19"):
        derivative_unit_roots(0.9, 0.9, 18)
    assert len(calls) == 1


def test_threshold_minimisers_past_the_old_scan_caps():
    # minimisers near arity 1e5 and 1e6, past the caps of a one-arity scan
    for rep, lam in (
        (hardcore_threshold(1.00001, math.inf),
         lambda d: derivative_unit_roots(0.0, 1.00001, d).lam_low),
        (universal_lambda_threshold(0.1, 1.000001),
         lambda d: derivative_unit_roots(0.1, 1.000001, d).lam_low),
    ):
        d = rep.witness_d
        assert d > 10**5 and lam(d - 1) > rep.values[0] == lam(d) <= lam(d + 1)
    # the minimiser is d = 3; the terms past arity 60 leave double range
    rep = hardcore_threshold(2.0, 1100)
    assert rep.values == (27.0,) and rep.witness_d == 3
    assert hardcore_threshold(100.0, 257).witness_d == 2


def test_hardcore_terms_stay_finite_where_the_power_product_overflows():
    # gamma**60 * 59**59 passes the float range; the quotient does not
    def term(gamma, d):
        return derivative_unit_roots(0.0, gamma, d).lam_low

    assert term(1e4, 59) == pytest.approx(
        math.exp(60 * math.log(1e4) + 59 * math.log(59) - 60 * math.log(58)), rel=1e-12)
    for gamma in (1e4, 1e6):
        logs = []
        for d in range(2, 120):
            lam = term(gamma, d)
            true_log = (d + 1) * math.log(gamma) + d * math.log(d) - (d + 1) * math.log(d - 1)
            if true_log < math.log(sys.float_info.max) - 1e-9:
                assert lam < math.inf
                logs.append(math.log(lam))
            else:
                assert lam == math.inf
        assert len(logs) > 40
        for a, b, c in zip(logs, logs[1:], logs[2:]):
            assert a - 2.0 * b + c >= -1e-9
    # the log form still gives these closed forms bit for bit
    assert hardcore_threshold(1.0, 4).values == (27 / 16,)
    assert hardcore_threshold(2.0, 1100).values == (27.0,)


def test_soft_thresholds_cost_is_logarithmic_in_delta(monkeypatch):
    calls = []
    roots = uniqueness.derivative_unit_roots
    monkeypatch.setattr(uniqueness, "derivative_unit_roots",
                        lambda *args: calls.append(args) or roots(*args))
    rep = soft_thresholds(0.1, 2.0, 100_000)
    assert rep.values[1] == math.inf and rep.witness_d == 4
    assert len(calls) < 200


def critical_rows(beta, gamma, delta):
    """(d, lam_low, lam_high) for every admissible arity below delta; for
    beta = 0 every arity from 2 on, with lam_high = inf."""
    r = math.sqrt(beta * gamma)
    rows = []
    for d in range(2, delta):
        if d - 1 >= r * (d + 1):
            roots = derivative_unit_roots(beta, gamma, d)
            rows.append((d, roots.lam_low, roots.lam_high))
    return rows


@st.composite
def threshold_cases(draw):
    beta = draw(st.floats(0.0, 0.95))
    gamma = draw(st.floats(beta, 1.0 / beta if beta else 1e6, exclude_max=True))
    assume(gamma > 0 and beta * gamma < 1)
    return beta, gamma, draw(st.integers(3, 400))


@given(threshold_cases())
@settings(max_examples=300, deadline=None)
def test_threshold_searches_equal_a_plain_scan(case):
    beta, gamma, delta = case
    rows = critical_rows(beta, gamma, delta)
    if not rows:  # no admissible arity below delta
        assert soft_thresholds(beta, gamma, delta).all_lambda_unique
        return
    lo_d, lo, _ = min(rows, key=lambda row: row[1])  # the first minimiser
    hi_d, _, hi = max(rows, key=lambda row: row[2])
    if beta == 0:
        rep = hardcore_threshold(gamma, delta)
        assert (rep.values, rep.witness_d) == ((lo,), lo_d)
    else:
        rep = soft_thresholds(beta, gamma, delta)
        assert not rep.all_lambda_unique and rep.values == (lo, hi)
        assert rep.witness_d == lo_d and rep.extras == {"witness_d_high": hi_d}
    # by convexity an interior minimiser is the minimiser over all arities
    if gamma > 1 and lo_d < delta - 1:
        rep = (hardcore_threshold(gamma, math.inf) if beta == 0
               else universal_lambda_threshold(beta, gamma))
        assert (rep.values, rep.witness_d) == ((lo,), lo_d)


def test_admissibility_stays_monotone_past_2_53():
    # beta*gamma = 1 - 2**-53 puts the start past 2**53, where float(d + 1)
    # rounds: a plain float comparison refuses d = 2**53 + 2 after admitting
    # 2**53, so the search and the one comparison disagreed
    beta, gamma = 0.6234823183425618, 1.603894722561429
    start = uniqueness._admissible_start(beta, gamma)
    assert start > 2**53
    r = math.sqrt(beta * gamma)
    for d in (*range(2**53 - 8, 2**53 + 8), *range(start - 8, start + 8)):
        assert uniqueness._admissible(r, d) == (d >= start)
    with pytest.raises(InvalidParameterError, match=f"first holds at d = {start}$"):
        derivative_unit_roots(beta, gamma, 2**53 + 2)
    assert derivative_unit_roots(beta, gamma, start).d == start


@given(threshold_cases(), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_the_admissibility_comparison_agrees_with_the_searched_start(case, offset):
    beta, gamma, _ = case
    start = uniqueness._admissible_start(beta, gamma)
    for d in {max(2, start - 1 - offset), max(2, start - 1), start, start + offset}:
        if d < start:
            with pytest.raises(InvalidParameterError, match=f"first holds at d = {start}$"):
                derivative_unit_roots(beta, gamma, d)
        else:
            assert derivative_unit_roots(beta, gamma, d).d == d


@given(threshold_cases())
@settings(max_examples=150, deadline=None)
def test_log_critical_activities_are_convex_in_the_arity(case):
    rows = critical_rows(*case)
    # log lam_low (the hardcore term at beta = 0) is convex, log lam_high concave
    for col, sign in ((1, 1.0), (2, -1.0))[: 1 if case[0] == 0 else 2]:
        vals = [row[col] for row in rows]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            # normal floats only: a subnormal keeps too few digits for its log
            if all(sys.float_info.min <= v < math.inf for v in (a, b, c)):
                assert sign * (math.log(a) - 2.0 * math.log(b) + math.log(c)) >= -1e-9


def test_gamma_threshold_separates_the_regimes():
    rep = gamma_threshold(0.0, 1.0, 5)
    gc = rep.values[0]
    assert hardcore_threshold(gc * 1.01, 5).values[0] > 1.0
    assert hardcore_threshold(gc * 0.99, 5).values[0] < 1.0

    rep2 = gamma_threshold(0.3, 2.0, 6)
    gc2 = rep2.values[0]
    assert not is_unique_up_to(SpinSystem(0.3, gc2 * 0.98, 2.0), 6).unique
    assert is_unique_up_to(SpinSystem(0.3, gc2 * 1.02, 2.0), 6).unique


def test_gamma_threshold_bracket_may_probe_gamma_near_one():
    # the bisection's lowest probe above gamma = 1 is 1.039
    beta, lam = 0.09871169290240459, 1.3984426131832892
    gc = gamma_threshold(beta, lam, math.inf).values[0]
    assert not is_unique_up_to(SpinSystem(beta, gc * (1 - 1e-6), lam), math.inf).unique
    assert is_unique_up_to(SpinSystem(beta, gc * (1 + 1e-6), lam), math.inf).unique


@pytest.mark.parametrize("beta", [1e-20, 1e-300])
def test_gamma_threshold_of_a_tiny_beta_matches_beta_zero(beta):
    # gamma = 0.5 is not unique, so "every gamma is unique" would be wrong
    assert not is_unique_up_to(SpinSystem(beta, 0.5, 1.0), math.inf)
    hardcore = gamma_threshold(0.0, 1.0, math.inf).values[0]
    rep = gamma_threshold(beta, 1.0, math.inf)
    assert rep.extras == {} and rep.values[0] == pytest.approx(hardcore, rel=1e-9)


@pytest.mark.parametrize("beta, lam, delta", [
    (0.0, 1.0, 5), (0.0, 1.0, math.inf), (0.0, 50.0, 3), (1e-20, 1.0, math.inf),
    (0.1, 1.2, math.inf), (0.3, 2.0, 6), (0.5, 0.01, 40), (0.6, 5.0, 30),
])
def test_gamma_threshold_is_a_crossing(beta, lam, delta):
    gc = gamma_threshold(beta, lam, delta).values[0]
    assert not is_unique_up_to(SpinSystem(beta, gc * (1 - 1e-6), lam), delta)
    assert is_unique_up_to(SpinSystem(beta, gc * (1 + 1e-6), lam), delta)


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_gamma_threshold_reports_all_unique_after_two_checks(beta):
    # arity 1, the only one below delta = 2, is unique for every system
    is_unique_up_to.cache_clear()
    rep = gamma_threshold(beta, 1.0, 2)
    assert rep.values == (beta,) and rep.extras == {"all_gamma_unique": True}
    assert is_unique_up_to.cache_info().misses <= 2


@pytest.mark.parametrize("beta", [1.0, 1.5, math.inf, math.nan, -0.1])
def test_gamma_threshold_needs_beta_below_one(beta):
    with pytest.raises(InvalidParameterError):
        gamma_threshold(beta, 1.0, 5)


def test_universal_lambda_threshold_flips_uniqueness():
    rep = universal_lambda_threshold(0.2, 4.0)
    lc = rep.values[0]
    assert is_unique_up_to(SpinSystem(0.2, 4.0, lc * 0.99), math.inf).unique
    assert not is_unique_up_to(SpinSystem(0.2, 4.0, lc * 1.01), math.inf).unique


def test_choose_m_certificate():
    s = SpinSystem(0.2, 4.0, 1.0)
    al = contraction_bound(s, math.inf).alpha
    m = choose_M(s, al)
    assert m == 14.0
    log_al = math.log(al)
    for d in range(1, 3000):
        k = ceil_log(m, d + 1)
        if k < 2:
            continue  # covered by alpha itself
        log_h = math.log(d) + 0.5 * (math.log(s.lam) - (d + 1) * math.log(s.gamma))
        assert log_h <= k * log_al + 1e-12, f"arity {d} breaks the certificate"


def test_choose_m_rejects_flat_gamma():
    with pytest.raises(InvalidParameterError):
        choose_M(SpinSystem(0.0, 1.0, 0.5), 0.5)


def test_choose_m_names_the_last_base_it_tries():
    assert uniqueness._M_GRID[-1] == 51200.0
    with pytest.raises(NoThresholdError, match="no truncation base up to 51200 certified"):
        choose_M(SpinSystem(0.0, 1.0001, 1.0), 0.99999)
    # a contraction just strong enough certifies the grid's last base
    assert choose_M(SpinSystem(0.1, 1.0005, 1.0), 0.9999) == 51200.0


def test_standalone_marginals_on_one_system_search_the_base_once():
    # a cubic graph plus vertex 40 joined to all of it
    core = random_regular(40, 3, seed=2)
    g = from_edges(41, [(u, w) for u in range(40) for w in core.adj[u] if u < w]
                   + [(u, 40) for u in range(40)])
    s = SpinSystem(0.1, 3.5, 1.0)
    choose_M.cache_clear()
    for v in (*range(7), 40):
        assert estimate_marginal(g, s, v, eps=1e-3, mode="mbased").policy == "mbased"
    assert choose_M.cache_info().misses == 1


def test_non_monotone_witness_is_genuine():
    w = find_non_monotone_witness()
    assert (w.non_unique_d, w.unique_d) == (12, 14)
    assert fixed_point(w.system, w.non_unique_d).derivative_abs >= 1.0
    assert fixed_point(w.system, w.unique_d).derivative_abs < 1.0
