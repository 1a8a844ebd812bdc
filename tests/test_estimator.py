"""Interval propagation, accuracy-driven estimation, and the partition pipeline."""
from __future__ import annotations

import math

import pytest

from spindecay.core import BLUE, GREEN, SpinSystem, recursion_f
from spindecay.errors import (
    BudgetExceededError,
    InvalidParameterError,
    UniquenessError,
)
from spindecay.estimator import (
    Depth,
    MBased,
    _make_bounds,
    approx_partition,
    bounds,
    decay_curve,
    estimate_marginal,
    exhaustive_ratio,
)
from spindecay.graphs import Boundary, Graph, cycle, path, random_tree, star
from spindecay.oracle import exact_marginal, exact_partition

HARDCORE = SpinSystem(0.0, 1.0, 1.0)
SOFT = SpinSystem(0.3, 1.2, 0.8)


def test_depth_zero_is_the_trivial_interval():
    b = bounds(path(2), HARDCORE, 0, policy=Depth(0))
    assert (b.p_lo, b.p_hi) == (0.0, 1.0)
    assert not b.exact


def test_depth_one_on_an_edge():
    b = bounds(path(2), HARDCORE, 0, policy=Depth(1))
    assert b.p_lo == 0.0
    assert b.p_hi == pytest.approx(0.5)


def test_full_expansion_hits_the_exact_marginal():
    for g in (path(2), cycle(4), cycle(5)):
        for s in (HARDCORE, SOFT):
            est = bounds(g, s, 0, policy=Depth(g.n + 1))
            truth = exact_marginal(g, s, 0)
            assert est.exact
            assert est.p_lo == pytest.approx(truth.p, abs=1e-10)
            assert est.p_hi == pytest.approx(truth.p, abs=1e-10)


def test_intervals_nest_as_depth_grows():
    g = cycle(5)
    prev = bounds(g, HARDCORE, 0, policy=Depth(0))
    for t in range(1, 7):
        cur = bounds(g, HARDCORE, 0, policy=Depth(t))
        assert cur.p_lo >= prev.p_lo - 1e-12
        assert cur.p_hi <= prev.p_hi + 1e-12
        prev = cur


def test_intervals_contain_the_truth_at_every_depth():
    g = cycle(5)
    truth = exact_marginal(g, SOFT, 0).p
    for t in range(0, 7):
        est = bounds(g, SOFT, 0, policy=Depth(t))
        assert est.p_lo - 1e-12 <= truth <= est.p_hi + 1e-12


def test_fixed_vertices_are_point_intervals():
    g = path(3)
    b = Boundary(fixed={0: BLUE})
    est = bounds(g, HARDCORE, 0, b, policy=Depth(3))
    assert est.p_lo == est.p_hi == 1.0 and est.exact


def test_differing_set_members_stay_unknown():
    g = path(4)
    b = Boundary(fixed={3: BLUE}, S=frozenset({3}))
    withfixed = bounds(g, HARDCORE, 0, Boundary(fixed={3: BLUE}), policy=Depth(5))
    withs = bounds(g, HARDCORE, 0, b, policy=Depth(5))
    assert withfixed.exact
    assert not withs.exact
    assert withs.p_lo - 1e-12 <= withfixed.p_lo
    assert withs.p_hi + 1e-12 >= withfixed.p_hi


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        bounds(cycle(6), HARDCORE, 0, policy=Depth(6), budget=3)


def test_policy_validation():
    g = path(2)
    with pytest.raises(InvalidParameterError):
        bounds(g, HARDCORE, 0, policy=Depth(-1))
    with pytest.raises(InvalidParameterError):
        bounds(g, HARDCORE, 0, policy=MBased(1.0, 3))
    with pytest.raises(InvalidParameterError):
        bounds(g, HARDCORE, 0, policy=MBased(2.0, 0))
    with pytest.raises(InvalidParameterError):
        bounds(g, HARDCORE, 5, policy=Depth(1))


def test_accuracy_loop_meets_a_tight_target():
    est = estimate_marginal(cycle(4), HARDCORE, 0, eps=1e-3)
    assert est.width <= 1e-3


def test_exhaustive_ratio_matches_enumeration():
    g = cycle(6)
    assert exhaustive_ratio(g, SOFT, 2) == pytest.approx(
        exact_marginal(g, SOFT, 2).ratio, rel=1e-10
    )
    with pytest.raises(InvalidParameterError):
        exhaustive_ratio(g, SOFT, 0, Boundary(fixed={1: BLUE}, S=frozenset({1})))
    with pytest.raises(InvalidParameterError):
        exhaustive_ratio(g, SOFT, -1)  # not a vertex, even though adj[-1] exists


def test_estimate_marginal_meets_the_width_target():
    g = random_tree(40, seed=2)
    est = estimate_marginal(g, SOFT, 0, eps=1e-3)
    assert est.width <= 1e-3
    truth = exhaustive_ratio(g, SOFT, 0)
    p = truth / (1.0 + truth)
    assert est.p_lo - 1e-12 <= p <= est.p_hi + 1e-12


def test_estimate_marginal_validation():
    g = path(3)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            estimate_marginal(g, HARDCORE, 0, eps=bad)
    b = Boundary(fixed={2: BLUE}, S=frozenset({2}))
    with pytest.raises(InvalidParameterError):
        estimate_marginal(g, HARDCORE, 0, b, eps=0.1)
    for v in (-1, 3):
        with pytest.raises(InvalidParameterError):
            estimate_marginal(g, HARDCORE, v, eps=0.1)


def test_estimate_marginal_rejects_non_unique_systems():
    with pytest.raises(UniquenessError) as exc:
        estimate_marginal(star(5), SpinSystem(0.0, 1.0, 2.0), 0, eps=0.1)
    assert exc.value.violating_d == 3


def test_mbased_mode_agrees_with_depth_mode():
    g = path(6)
    s = SpinSystem(0.2, 4.0, 1.0)
    truth = exhaustive_ratio(g, s, 0)
    p = truth / (1.0 + truth)
    for mode in ("depth", "mbased"):
        est = estimate_marginal(g, s, 0, eps=1e-4, mode=mode)
        assert est.policy == mode
        assert est.p_lo - 1e-12 <= p <= est.p_hi + 1e-12
        assert est.width <= 1e-4


def test_mbased_requires_growing_gamma():
    with pytest.raises(UniquenessError):
        estimate_marginal(path(4), HARDCORE, 0, eps=0.1, mode="mbased")


def test_per_vertex_activities_flow_through():
    g = Graph(n=3, adj=path(3).adj, lambda_v={0: 0.5, 1: 1.5, 2: 0.9})
    est = estimate_marginal(g, SOFT, 1, eps=1e-6)
    truth = exact_marginal(g, SOFT, 1)
    assert est.p_lo - 1e-9 <= truth.p <= est.p_hi + 1e-9


def test_approx_partition_on_known_sums():
    pe = approx_partition(path(2), HARDCORE, eps=0.02)
    assert pe.log_z == pytest.approx(math.log(3.0), abs=pe.rel_error_bound)
    pe = approx_partition(cycle(4), HARDCORE, eps=0.02)
    assert pe.log_z == pytest.approx(math.log(7.0), abs=pe.rel_error_bound)
    assert pe.rel_error_bound <= 0.02


def test_approx_partition_order_and_boundary():
    g = cycle(4)
    ref = exact_partition(g, SOFT).log_z
    for order in (None, [3, 2, 1, 0], [2, 0, 3, 1]):
        pe = approx_partition(g, SOFT, eps=0.01, order=order)
        assert pe.log_z == pytest.approx(ref, abs=pe.rel_error_bound + 1e-9)
    b = Boundary(fixed={3: GREEN})
    pe = approx_partition(g, SOFT, eps=0.01, boundary=b)
    refb = exact_partition(g, SOFT, b).log_z
    assert pe.log_z == pytest.approx(refb, abs=pe.rel_error_bound + 1e-9)
    assert pe.chosen_config[3] == GREEN
    with pytest.raises(InvalidParameterError):
        approx_partition(g, SOFT, eps=0.01, order=[0, 1])
    with pytest.raises(InvalidParameterError):
        approx_partition(g, SOFT, eps=0.01, order=[0, 1, 2, 2])


def test_approx_partition_all_fixed_is_exact():
    g = path(2)
    b = Boundary(fixed={0: GREEN, 1: BLUE})
    pe = approx_partition(g, HARDCORE, eps=0.5, boundary=b)
    assert pe.rel_error_bound == 0.0
    assert pe.log_z == pytest.approx(0.0, abs=1e-12)  # single weight lam = 1


def test_approx_partition_probabilities_stay_away_from_zero():
    pe = approx_partition(random_tree(25, seed=9), SOFT, eps=0.05)
    assert all(p >= 1.0 / 3.0 - 1e-9 for _, p in pe.per_vertex_p)


def test_decay_curve_widths_shrink():
    g = random_tree(60, seed=4)
    curve = decay_curve(g, SOFT, 0, t_max=8)
    assert curve[0].width == 1.0
    for a, b in zip(curve, curve[1:]):
        assert b.width <= a.width + 1e-12
    # each point matches an independent single-depth evaluation
    for pt in curve[::3]:
        single = bounds(g, SOFT, 0, policy=Depth(pt.t))
        assert pt.p_lo == pytest.approx(single.p_lo, abs=1e-12)
        assert pt.p_hi == pytest.approx(single.p_hi, abs=1e-12)


def test_decay_curve_on_pinned_roots():
    g = path(3)
    curve = decay_curve(g, HARDCORE, 0, Boundary(fixed={0: BLUE}), t_max=3)
    assert all(pt.width == 0.0 and pt.p_lo == 1.0 for pt in curve)
    b = Boundary(fixed={0: BLUE}, S=frozenset({0}))
    curve = decay_curve(g, HARDCORE, 0, b, t_max=3)
    assert all(pt.width == 1.0 for pt in curve)


def test_decay_curve_validates_the_vertex():
    with pytest.raises(InvalidParameterError):
        decay_curve(path(3), HARDCORE, 5, t_max=2)


def test_wide_products_with_a_zero_factor_stay_exact():
    # the centre has a blue-pinned neighbour and beta = 0, so its ratio is 0;
    # the other factors, 1/gamma each, overflow the running product first
    b = bounds(star(32), SpinSystem(0.0, 1e-12, 1.0), 0, Boundary(fixed={32: BLUE}),
               Depth(1))
    assert (b.r_lo, b.r_hi, b.p_lo, b.p_hi) == (0.0, 0.0, 0.0, 0.0)
    curve = decay_curve(star(200), SpinSystem(0.0, 0.01, 1.0), 0,
                        Boundary(fixed={200: BLUE}), t_max=2)
    assert (curve[0].p_lo, curve[0].p_hi) == (0.0, 1.0)
    assert all((pt.p_lo, pt.p_hi, pt.width) == (0.0, 0.0, 0.0) for pt in curve[1:])


def test_probability_interval_stays_ordered_where_r_over_1_plus_r_inverts():
    r_lo = 0.42017085930776654
    r_hi = math.nextafter(r_lo, math.inf)
    assert r_lo / (1.0 + r_lo) > r_hi / (1.0 + r_hi)  # the rounding this guards
    b = _make_bounds(r_lo, r_hi, 1, False, "depth", 1)
    assert (b.r_lo, b.r_hi) == (r_lo, r_hi)
    assert b.p_lo < b.p_hi
    assert {b.p_lo, b.p_hi} == {r_lo / (1.0 + r_lo), r_hi / (1.0 + r_hi)}


@pytest.mark.parametrize("leaves", [20, 40])
def test_kernel_and_recursion_f_agree_on_a_star(leaves):
    # 40 leaves put the centre's product in log mode
    lam = {v: 0.5 + v / leaves for v in range(leaves + 1)}
    g = Graph(n=leaves + 1, adj=star(leaves).adj, lambda_v=lam)
    b = bounds(g, SOFT, 0, policy=Depth(2))
    expected = recursion_f(SOFT, lam[0], [lam[v] for v in range(1, leaves + 1)])
    assert b.exact and b.r_lo == b.r_hi == expected
