"""Interval propagation, accuracy-driven estimation, and the partition pipeline."""
from __future__ import annotations

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spindecay.estimator as estimator
from spindecay.core import BLUE, GREEN, SpinSystem
from spindecay.errors import (
    BudgetExceededError,
    InvalidParameterError,
    UniquenessError,
    ZeroWeightError,
)
from spindecay.estimator import (
    Depth,
    MarginalBounds,
    MBased,
    _ends,
    approx_partition,
    bounds,
    decay_curve,
    estimate_marginal,
)
from spindecay.graphs import (
    Boundary,
    Graph,
    cycle,
    from_edges,
    max_degree,
    path,
    random_regular,
    random_tree,
    star,
)
from spindecay.oracle import exact_marginal, exact_partition
from spindecay.saw import FREE, dump_levels
from spindecay.uniqueness import hardcore_threshold, is_unique_up_to

from helpers import FLIP, SWAP_GRAPH, exhaustive_ratio, hand_swapped, inverted, recursion_f

HARDCORE = SpinSystem(0.0, 1.0, 1.0)
SOFT = SpinSystem(0.3, 1.2, 0.8)


def test_depth_zero_is_the_trivial_interval():
    b = bounds(path(2), HARDCORE, 0, policy=Depth(0))
    assert (b.p_lo, b.p_hi) == (0.0, 1.0)
    assert not b.exact


def test_depth_one_on_an_edge():
    # the neighbour is a pendant frontier leaf, so one level is exact; the
    # [0, +inf] frontier gave [0, 0.5]
    b = bounds(path(2), HARDCORE, 0, policy=Depth(1))
    truth = exact_marginal(path(2), HARDCORE, 0).p
    assert b.exact and b.p_lo == b.p_hi == truth
    assert 0.0 <= b.p_lo <= b.p_hi <= 0.5


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


@st.composite
def leaf_instances(draw):
    """A graph of at most 10 vertices with pendant vertices hung on it,
    per-vertex activities, an anti-ferromagnetic system in either spin
    orientation (unique or not), and pins with a differing set off the root."""
    core = draw(st.integers(1, 7))
    pairs = [(u, w) for u in range(core) for w in range(u + 1, core)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * core)) if pairs else []
    hung = draw(st.lists(st.integers(0, core - 1), max_size=3))
    n = core + len(hung)
    edges += [(u, core + i) for i, u in enumerate(hung)]
    lam = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    g = from_edges(n, edges, lambda_v=dict(enumerate(lam)))
    low = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    high = draw(st.floats(max(low, 0.2), 3.0))
    assume(low * high < 0.95)
    # beta > gamma is the same system with its spin labels swapped
    beta, gamma = (high, low) if draw(st.booleans()) else (low, high)
    s = SpinSystem(beta, gamma, 1.0)
    spins = draw(st.lists(st.sampled_from([None, BLUE, GREEN]), min_size=n - 1,
                          max_size=n - 1))
    fixed = {v: sp for v, sp in zip(range(1, n), spins) if sp is not None}
    s_set = frozenset(draw(st.lists(st.sampled_from(sorted(fixed)), max_size=2))
                      if fixed else ())
    return g, s, fixed, s_set


def _contains(b, p):
    return b.p_lo - 1e-12 <= p <= b.p_hi + 1e-12


@given(leaf_instances(), st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=150, deadline=None)
def test_degree_bounded_leaves_are_certificates(inst, m):
    g, s, fixed, s_set = inst
    # the truth with the differing set at its pinned spins; the walk must
    # contain it whatever those spins are
    try:
        truth = exact_marginal(g, s, 0, Boundary(fixed=fixed)).p
    except ZeroWeightError:
        assume(False)
    boundary = Boundary(fixed=fixed, S=s_set)
    for family in ([Depth(t) for t in range(g.n + 2)],
                   [MBased(m, ell) for ell in range(1, 8)]):
        prev = None
        for policy in family:
            b = bounds(g, s, 0, boundary, policy)
            assert not (math.isnan(b.p_lo) or math.isnan(b.p_hi)) and b.p_lo <= b.p_hi
            assert _contains(b, truth), policy
            assert b.p_lo == b.p_hi or not b.exact, policy  # an exact walk is a point
            if prev is not None:  # a deeper walk only narrows the interval
                assert prev.p_lo - 1e-12 <= b.p_lo and b.p_hi <= prev.p_hi + 1e-12, policy
            prev = b
    # Depth(n + 1) walks the whole tree
    assert s_set or bounds(g, s, 0, boundary, Depth(g.n + 1)).exact
    # with no differing set, a walk whose free frontier leaves are all
    # pendant is exact
    for t in range(1, g.n + 1):
        frontier = [r["origin"] for r in dump_levels(g, 0, t, Boundary(fixed=fixed))
                    if r["depth"] == t and r["kind"] == FREE]
        b = bounds(g, s, 0, Boundary(fixed=fixed), Depth(t))
        if all(len(g.adj[w]) == 1 for w in frontier):
            assert b.exact and _contains(b, truth) and b.p_hi - b.p_lo <= 1e-12, t


@pytest.mark.parametrize("leaves", range(1, 10))
def test_a_star_is_exact_at_depth_one(leaves):
    g = from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)],
                   lambda_v={v: 0.3 + 0.4 * v for v in range(leaves + 1)})
    for s in (HARDCORE, SOFT, SpinSystem(1.5, 0.2, 0.7)):
        b = bounds(g, s, 0, policy=Depth(1))
        truth = exact_marginal(g, s, 0).p
        assert b.exact and b.expanded == 1
        assert b.p_lo == pytest.approx(truth, rel=1e-12)
        assert b.p_hi == pytest.approx(truth, rel=1e-12)


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
    for make in (lambda: Depth(2.5), lambda: Depth(True), lambda: MBased(2.0, 1.5),
                 lambda: MBased(2.0, True), lambda: decay_curve(g, HARDCORE, 0, t_max=2.5),
                 lambda: decay_curve(g, HARDCORE, 0, t_max=True)):
        with pytest.raises(InvalidParameterError):
            make()  # levels are integers
    with pytest.raises(InvalidParameterError):
        bounds(g, HARDCORE, 0, policy=None)  # no policy; Depth(g.n + 1) walks the whole tree
    with pytest.raises(InvalidParameterError):
        bounds(g, HARDCORE, 5, policy=Depth(1))
    # a pinned root and a root in the differing set need no walk, yet check
    # the policy as a free root does
    for boundary in (None, Boundary(fixed={1: BLUE}), Boundary(fixed={1: BLUE}, S=frozenset({1}))):
        with pytest.raises(InvalidParameterError, match="unknown truncation policy 'bogus'"):
            bounds(path(4), HARDCORE, 1, boundary, policy="bogus")


_ENTRY_POINTS = {
    "bounds": lambda g, v, b, **kw: bounds(g, SOFT, v, b, Depth(3), **kw),
    "estimate_marginal": lambda g, v, b, **kw: estimate_marginal(g, SOFT, v, b, **kw),
    "decay_curve": lambda g, v, b, **kw: decay_curve(g, SOFT, v, b, t_max=3, **kw),
    "approx_partition": lambda g, v, b, **kw: approx_partition(
        g, SOFT, 0.1, b, order=[v, *(u for u in range(g.n) if u != v)], **kw),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("root, fixed", [
    (0, {99: BLUE}), (0, {-1: GREEN}), (0, {1.0: BLUE}), (0, {True: BLUE}),
    (1.0, {}), (True, {}), (4, {}), (-1, {}),
], ids=["pin-99", "pin-minus-1", "pin-float", "pin-bool", "root-float", "root-bool", "root-4",
        "root-minus-1"])
def test_entry_points_reject_what_is_no_vertex(entry, root, fixed):
    # approx_partition takes the root as the head of its order (1.0 == 1);
    # a root of -1 is no vertex, although adj[-1] exists
    with pytest.raises(InvalidParameterError):
        _ENTRY_POINTS[entry](path(4), root, Boundary(fixed=fixed))


@pytest.mark.parametrize("entry", [*sorted(_ENTRY_POINTS), "dump_levels"])
def test_entry_points_reject_a_budget_that_is_no_positive_int(entry):
    # the walker checks the budget once; nan would cap nothing, "10" would
    # fail its first comparison, and a bool or a float would pass as a cap
    run = _ENTRY_POINTS.get(entry, lambda g, v, b, budget: dump_levels(g, v, 3, b, budget))
    for budget in (math.nan, "10", True, 2.5, 0, -3):
        with pytest.raises(InvalidParameterError, match=f"got {re.escape(repr(budget))}$"):
            run(path(4), 0, None, budget=budget)


def test_accuracy_loop_meets_a_tight_target():
    est = estimate_marginal(cycle(4), HARDCORE, 0, eps=1e-3)
    assert est.width <= 1e-3


def test_accuracy_loop_counts_the_nodes_of_every_level_tried():
    g = random_regular(40, 3, seed=3)
    s = SpinSystem(0.0, 1.0, 0.5 * hardcore_threshold(1.0, 4).values[0])
    est = estimate_marginal(g, s, 0, eps=1e-2)
    assert est.level > 1 and not est.exact
    tried = range(1, est.level + 1, 2)
    assert est.expanded == sum(bounds(g, s, 0, policy=Depth(t)).expanded for t in tried)
    # the level before the last one was still too wide
    assert bounds(g, s, 0, policy=Depth(est.level - 2)).width > 1e-2


def test_accuracy_loop_stops_far_below_the_a_priori_level():
    # alpha = 0.778 assigns level 24 to eps = 1e-2, whose walk tree exceeds
    # five million nodes; the measured width complies at level 9
    g = random_regular(100, 3, seed=1)
    s = SpinSystem(0.0, 1.0, 0.5 * hardcore_threshold(1.0, 4).values[0])
    est = estimate_marginal(g, s, 0, eps=1e-2, budget=10_000)
    assert est.width <= 1e-2 and est.level == 9


@st.composite
def unique_instances(draw):
    """A small graph, a system unique up to its degree bound, a boundary of
    positive weight that leaves the root free, and a width target."""
    n = draw(st.integers(2, 8))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
    g = from_edges(n, edges)
    beta = draw(st.sampled_from([0.0, 0.0, 0.1, 0.4]))
    gamma = draw(st.floats(max(beta, 0.3), 2.5))
    assume(beta * gamma < 0.95)
    s = SpinSystem(beta, gamma, draw(st.floats(0.05, 3.0)))
    assume(is_unique_up_to(s, max(2, max_degree(g) + 1)))
    spins = draw(st.lists(st.sampled_from([None, BLUE, GREEN]), min_size=n - 1,
                          max_size=n - 1))
    fixed = {v: sp for v, sp in zip(range(1, n), spins) if sp is not None}
    assume(beta > 0.0 or not any(fixed.get(u) == fixed.get(w) == BLUE for u, w in edges))
    eps = draw(st.sampled_from([0.3, 0.1, 1e-2, 1e-3, 1e-5]))
    return g, s, Boundary(fixed=fixed), eps


@given(unique_instances())
@settings(max_examples=150, deadline=None)
def test_accuracy_loop_intervals_are_certificates(inst):
    g, s, boundary, eps = inst
    est = estimate_marginal(g, s, 0, boundary, eps=eps)
    assert not (math.isnan(est.p_lo) or math.isnan(est.p_hi))
    assert est.p_lo <= est.p_hi
    assert est.exact or est.width <= eps
    truth = exact_marginal(g, s, 0, boundary).p
    assert est.p_lo - 1e-12 <= truth <= est.p_hi + 1e-12


def test_accuracy_loop_certifies_a_uniqueness_tie_within_rounding():
    # hardcore gamma = 0.5, lam = 0.5 sits on lam_c(0.5, 2) = 0.5; a maximum
    # degree of 2 needs uniqueness up to 3, which the computed derivative grants
    s = SpinSystem(0.0, 0.5, 0.5)
    est = estimate_marginal(path(3), s, 0, eps=1e-3)
    truth = exact_marginal(path(3), s, 0).p
    assert truth == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert est.p_lo <= truth <= est.p_hi and est.width <= 1e-3


def test_exhaustive_ratio_matches_enumeration():
    g = cycle(6)
    assert exhaustive_ratio(g, SOFT, 2) == pytest.approx(
        exact_marginal(g, SOFT, 2).ratio, rel=1e-10
    )


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


def test_unknown_modes_are_parameter_errors():
    pinned = Boundary(fixed={v: GREEN for v in range(4)})
    for mode in ("auto", "none", "bogus"):
        with pytest.raises(InvalidParameterError):
            estimate_marginal(path(4), HARDCORE, 0, eps=0.1, mode=mode)
        with pytest.raises(InvalidParameterError):
            approx_partition(path(4), HARDCORE, eps=0.1, mode=mode)
        # a pinned root and an all-pinned boundary need no walk, yet still
        # reject the mode
        with pytest.raises(InvalidParameterError):
            estimate_marginal(path(4), HARDCORE, 0, pinned, eps=0.1, mode=mode)
        with pytest.raises(InvalidParameterError):
            approx_partition(path(4), HARDCORE, eps=0.1, boundary=pinned, mode=mode)


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


def test_approx_partition_rejects_zero_weight_boundaries():
    blue_pair = {0: BLUE, 1: BLUE}
    # every vertex pinned, and pinned vertices beside a free one
    for g in (path(2), path(3)):
        with pytest.raises(ZeroWeightError):
            approx_partition(g, HARDCORE, eps=0.1, boundary=Boundary(fixed=blue_pair))


def test_marginals_reject_zero_weight_boundaries():
    g, b = path(3), Boundary(fixed={0: BLUE, 1: BLUE})
    for call in (lambda: bounds(g, HARDCORE, 2, b, Depth(2)),
                 lambda: estimate_marginal(g, HARDCORE, 2, b, eps=0.1),
                 lambda: decay_curve(g, HARDCORE, 2, b, t_max=2)):
        with pytest.raises(ZeroWeightError):
            call()
    # a differing-set member carries no spin for the evaluation
    lax = Boundary(fixed={0: BLUE, 1: BLUE}, S=frozenset({1}))
    assert bounds(g, HARDCORE, 2, lax, Depth(2)).p_hi > 0.0
    assert bounds(g, SOFT, 2, b, Depth(2)).exact  # beta > 0 weighs blue-blue


def test_a_differing_set_given_as_a_list_is_a_frozenset():
    # a list S once ended in a TypeError in the zero-weight check
    fixed = {1: BLUE, 2: BLUE}
    got, want = (bounds(path(3), HARDCORE, 0, Boundary(fixed=fixed, S=S), Depth(2))
                 for S in ([2], frozenset({2})))
    assert got == want
    assert Boundary(fixed=fixed, S=[2]).S == frozenset({2})


def test_approx_partition_probabilities_stay_away_from_zero():
    pe = approx_partition(random_tree(25, seed=9), SOFT, eps=0.05)
    assert all(p >= 1.0 / 3.0 - 1e-9 for _, p in pe.per_vertex_p)


LAMBDA_C4 = hardcore_threshold(1.0, 4).values[0]
CUBIC_SYSTEMS = (SpinSystem(0.0, 1.0, 0.3 * LAMBDA_C4),
                 SpinSystem(0.0, 1.0, 0.5 * LAMBDA_C4),
                 SpinSystem(0.2, 1.0, 1.0))


@pytest.mark.parametrize("n", [16, 30])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_approx_partition_interval_is_a_certificate(seed, n):
    g = random_regular(n, 3, seed=seed)
    for s in CUBIC_SYSTEMS:
        truth = exact_partition(g, s).log_z
        for eps in (0.1, 0.01):
            pe = approx_partition(g, s, eps)
            assert pe.log_z_lo <= truth <= pe.log_z_hi, (s, eps)
            assert pe.log_z == 0.5 * (pe.log_z_lo + pe.log_z_hi)
            assert abs(math.expm1(pe.log_z - truth)) <= pe.rel_error_bound <= eps
            # the bound is the interval's half-width, and the interval spends
            # at most the budget 2*log1p(eps), each up to the rounding allowance
            half = 0.5 * (pe.log_z_hi - pe.log_z_lo)
            assert pe.rel_error_bound == math.expm1(half)
            assert half <= math.log1p(eps) + 1e-12


def test_approx_partition_of_exact_walks_still_bounds_the_rounding():
    # every walk on C4 is exact, so the interval is the float error alone
    pe = approx_partition(cycle(4), HARDCORE, eps=0.02)
    assert 0.0 < pe.rel_error_bound < 1e-12
    assert pe.log_z_lo <= math.log(7.0) <= pe.log_z_hi
    assert abs(math.expm1(pe.log_z - math.log(7.0))) <= pe.rel_error_bound


def test_approx_partition_keeps_shares_finite_at_huge_eps():
    # an uncapped share of 2*log1p(1e20)/2 makes tanh(share/2) round to 1, so
    # the level-1 interval [0, 1] of this huge activity would comply
    pe = approx_partition(path(2), SpinSystem(0.0, 1.0, 1e30), eps=1e20)
    assert pe.log_z_lo <= math.log(1.0 + 2e30) <= pe.log_z_hi
    assert pe.rel_error_bound <= 1e20


@pytest.mark.parametrize("eps, nodes", [(0.1, 1230), (0.01, 7865)])
def test_approx_partition_spends_the_budget_on_certified_widths(eps, nodes):
    # the per-vertex rule eps/(4n) expanded 15 992 and 59 784 nodes here,
    # [0, +inf] frontier leaves 3483 and 22 282, and equal shares 3033 and
    # 15 624
    pe = approx_partition(random_regular(30, 3, seed=1), CUBIC_SYSTEMS[1], eps)
    assert pe.expanded == nodes
    assert pe.rel_error_bound <= eps


def test_approx_partition_spends_the_budget_where_the_trees_are_large():
    # degree 5: the first vertices' trees dwarf the rest, and equal shares
    # expanded 2 376 875 nodes here
    g, s = random_regular(40, 5, seed=3), SpinSystem(0.0, 1.0, 0.5)
    pe = approx_partition(g, s, 0.1)
    assert pe.expanded == 215906
    assert pe.rel_error_bound <= 0.1
    assert pe.log_z_lo <= exact_partition(g, s).log_z <= pe.log_z_hi


@st.composite
def partition_instances(draw):
    """A small graph, a mode and a system unique in its regime (in either
    spin orientation), pins of positive weight, a vertex order over every
    vertex, and eps."""
    n = draw(st.integers(1, 9))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min(n, len(pairs)),
                          max_size=2 * n)) if pairs else []
    g = from_edges(n, edges)
    mode = draw(st.sampled_from(["depth", "mbased"]))
    low = draw(st.sampled_from([0.0, 0.0, 0.1, 0.4]))
    high = draw(st.floats(max(low, 0.3), 2.5))
    assume(low * high < 0.95)
    s = SpinSystem(low, high, draw(st.floats(0.05, 3.0)))
    assume(is_unique_up_to(s, max(2, max_degree(g) + 1) if mode == "depth" else math.inf))
    if draw(st.booleans()):  # the same system with its spin labels swapped
        s = SpinSystem(high, low, 1.0 / s.lam)
    spins = draw(st.lists(st.sampled_from([None, None, BLUE, GREEN]), min_size=n, max_size=n))
    boundary = Boundary(fixed={v: sp for v, sp in enumerate(spins) if sp is not None})
    try:
        truth = exact_partition(g, s, boundary).log_z
    except ZeroWeightError:
        assume(False)
    order = draw(st.permutations(range(n)))
    eps = draw(st.sampled_from([0.5, 0.1, 1e-2, 1e-3]))
    return g, s, boundary, order, mode, eps, truth


def _record_shares(mp) -> list:
    """(root, share, result) of every estimate_marginal call that
    approx_partition makes through the module attribute, patched with the
    MonkeyPatch mp."""
    calls = []
    marginal = estimator.estimate_marginal

    def recorded(g, s, v, *args, **kwargs):
        out = marginal(g, s, v, *args, **kwargs)
        calls.append((v, kwargs["_run"][2], out))
        return out

    mp.setattr(estimator, "estimate_marginal", recorded)
    return calls


@given(partition_instances())
@settings(max_examples=150, deadline=None)
def test_every_vertex_with_a_free_neighbour_keeps_its_share_floor(inst):
    g, s, boundary, order, mode, eps, truth = inst
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reuses no fixture
        calls = _record_shares(mp)
        pe = approx_partition(g, s, eps, boundary, order=list(order), mode=mode)
    elim = [v for v in order if v not in boundary.fixed]
    assert [v for v, _, _ in calls] == elim
    # f: the neighbours of each vertex still free at its turn; w = f*(k - i)
    turn = {v: i for i, v in enumerate(elim)}
    k = len(elim)
    f = [sum(turn.get(u, -1) > i for u in g.adj[v]) for i, v in enumerate(elim)]
    w = [fi * (k - i) for i, fi in enumerate(f)]
    budget = 2.0 * math.log1p(eps)
    for (v, share, est), fi, wi in zip(calls, f, w):
        if fi > 0:
            floor = min(budget * wi / sum(w), math.log(3.0))
            assert share >= floor * (1.0 - 1e-12), (v, share, floor)
        else:  # every neighbour pinned: one level-1 walk, exact, on a share of 0
            assert share == 0.0
            assert est.exact and est.level == 1 and est.expanded == 1, (v, est)
    assert pe.log_z_lo <= truth <= pe.log_z_hi
    assert pe.rel_error_bound <= eps


def test_a_zero_share_never_reaches_the_level_cap(monkeypatch):
    # the last vertex of a path has its one neighbour pinned by then: its
    # share, and so its eps, is 0, and _level_for(0, alpha) would divide by 0
    calls = _record_shares(monkeypatch)
    pe = approx_partition(path(3), HARDCORE, 0.1)
    v, share, est = calls[-1]
    assert (v, share, est.exact, est.level) == (2, 0.0, True, 1)
    assert pe.log_z_lo <= math.log(5.0) <= pe.log_z_hi


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


def test_swapped_marginal_width_is_measured_as_returned():
    # oriented, the level-1 interval is [0.2, 0.5] of float width 0.3; in the
    # caller's labels it is [0.5, 0.8], of float width 0.30000000000000004
    b = estimate_marginal(path(5), SpinSystem(1.0, 0.0, 1.0), 2, eps=0.3)
    assert b.width <= 0.3 and b.level == 3


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
    lo, hi, p_lo, p_hi = _ends(r_lo, r_hi, False)
    assert (lo, hi) == (r_lo, r_hi)
    assert p_lo < p_hi
    assert {p_lo, p_hi} == {r_lo / (1.0 + r_lo), r_hi / (1.0 + r_hi)}


@pytest.mark.parametrize("leaves", [20, 40])
def test_kernel_and_recursion_f_agree_on_a_star(leaves):
    # 40 leaves put the centre's product in log mode
    lam = {v: 0.5 + v / leaves for v in range(leaves + 1)}
    g = Graph(n=leaves + 1, adj=star(leaves).adj, lambda_v=lam)
    b = bounds(g, SOFT, 0, policy=Depth(2))
    expected = recursion_f(SOFT, lam[0], [lam[v] for v in range(1, leaves + 1)])
    assert b.exact and b.r_lo == b.r_hi == expected


@pytest.mark.parametrize("lam, s", [
    # 32 factors of about 4.3e9 overflow a direct product to inf
    ({0: 1e-300}, SpinSystem(0.0, 1e-10, 1.3e-10)),
    # 32 factors of about 1.1e-11 underflow a direct product to 0
    ({0: 1e300, **{v: 1e12 for v in range(1, 33)}}, SpinSystem(1e-11, 1.0, 1.0)),
])
def test_a_product_past_the_float_range_keeps_an_in_range_ratio(lam, s):
    g = from_edges(33, [(0, v) for v in range(1, 33)], lam)
    b = bounds(g, s, 0, policy=Depth(3))
    want = exact_marginal(g, s, 0).ratio
    assert b.exact and 0.0 < b.r_lo == b.r_hi < math.inf
    assert b.r_lo == pytest.approx(want, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# beta > gamma: the entry points swap the spin labels themselves


# the second has gamma = 0, a hardcore system on green
SWAPPED_SYSTEMS = (SpinSystem(1.2, 0.3, 1.25), SpinSystem(1.0, 0.0, 1.25),
                   SpinSystem(2.0, 0.4, 2.0))
SWAP_BOUNDARIES = (None, Boundary(fixed={1: BLUE}), Boundary(fixed={4: GREEN, 9: BLUE}))


def _assert_translated(b, h):
    """b, in the caller's labels, is the hand-swapped h translated back."""
    assert (b.r_lo, b.r_hi) == (inverted(h.r_hi), inverted(h.r_lo))
    assert (b.p_lo, b.p_hi) == (1.0 - h.p_hi, 1.0 - h.p_lo)
    assert (b.expanded, b.exact, b.policy, b.level) == (h.expanded, h.exact, h.policy, h.level)


def test_estimate_marginal_accepts_beta_above_gamma():
    est = estimate_marginal(cycle(4), SpinSystem(2.0, 0.1, 1.0), 0)
    truth = exact_marginal(cycle(4), SpinSystem(2.0, 0.1, 1.0), 0).p
    assert est.p_lo <= truth <= est.p_hi and est.width <= 1e-2


@pytest.mark.parametrize("s", SWAPPED_SYSTEMS)
@pytest.mark.parametrize("boundary", SWAP_BOUNDARIES)
def test_swapped_systems_equal_the_hand_swapped_input(s, boundary):
    g = SWAP_GRAPH
    g2, s2, b2 = hand_swapped(g, s, boundary)
    for v in (0, 2):
        for policy in (Depth(0), Depth(3), Depth(6)):
            _assert_translated(bounds(g, s, v, boundary, policy),
                               bounds(g2, s2, v, b2, policy))
        _assert_translated(estimate_marginal(g, s, v, boundary, eps=1e-4),
                           estimate_marginal(g2, s2, v, b2, eps=1e-4))
        assert exhaustive_ratio(g, s, v, boundary) == inverted(
            exhaustive_ratio(g2, s2, v, b2))
        for pt, hp in zip(decay_curve(g, s, v, boundary, t_max=6),
                          decay_curve(g2, s2, v, b2, t_max=6)):
            assert (pt.t, pt.p_lo, pt.p_hi) == (hp.t, 1.0 - hp.p_hi, 1.0 - hp.p_lo)
            assert pt.width == pt.p_hi - pt.p_lo
    # a pinned root and a differing-set member translate back too
    pinned = Boundary(fixed={1: GREEN, 3: BLUE}, S=frozenset({3}))
    hand_pinned = hand_swapped(g, s, pinned)[2]
    for v in (1, 3):
        _assert_translated(bounds(g, s, v, pinned, Depth(2)),
                           bounds(g2, s2, v, hand_pinned, Depth(2)))

    pe = approx_partition(g, s, 0.05, boundary)
    he = approx_partition(g2, s2, 0.05, b2)
    # relabelling rescales every weight by the product of the caller's activities
    shift = sum(math.log(g.activity(v, s)) for v in range(g.n))
    for key in ("log_z", "log_z_lo", "log_z_hi"):
        assert getattr(pe, key) == pytest.approx(getattr(he, key) + shift, rel=1e-9)
    assert pe.rel_error_bound == pytest.approx(he.rel_error_bound, rel=1e-9)
    assert pe.chosen_config == tuple(FLIP[sp] for sp in he.chosen_config)
    assert pe.expanded == he.expanded and pe.mode == he.mode
    assert [v for v, _ in pe.per_vertex_p] == [v for v, _ in he.per_vertex_p]
    for (_, p), (_, q) in zip(pe.per_vertex_p, he.per_vertex_p):
        assert p == pytest.approx(q, rel=1e-9)
    truth = exact_partition(g, s, boundary).log_z
    assert pe.log_z_lo <= truth <= pe.log_z_hi


def test_pinned_green_neighbours_weigh_zero_at_gamma_zero():
    g, s = SWAP_GRAPH, SpinSystem(1.0, 0.0, 1.25)
    b = Boundary(fixed={1: GREEN, 3: GREEN})
    for call in (lambda: bounds(g, s, 0, b, Depth(2)),
                 lambda: estimate_marginal(g, s, 0, b, eps=0.1),
                 lambda: decay_curve(g, s, 0, b, t_max=2),
                 lambda: approx_partition(g, s, 0.1, b)):
        with pytest.raises(ZeroWeightError, match="pinned green neighbours 1 and 3"):
            call()
    # blue neighbours weigh beta = 1 there
    assert bounds(g, s, 0, Boundary(fixed={1: BLUE, 3: BLUE}), Depth(2)).p_hi > 0.0


def test_approx_partition_scans_the_boundary_once(monkeypatch):
    scans = []
    scan = estimator.require_positive_weight
    monkeypatch.setattr(estimator, "require_positive_weight",
                        lambda *args: scans.append(args) or scan(*args))
    g = random_regular(16, 3, seed=1)
    pe = approx_partition(g, CUBIC_SYSTEMS[1], 0.1, Boundary(fixed={0: GREEN}))
    assert len(pe.per_vertex_p) == 15 and len(scans) == 1
    estimate_marginal(g, CUBIC_SYSTEMS[1], 1, Boundary(fixed={0: GREEN}), eps=0.1)
    assert len(scans) == 2  # a caller's own marginal is still checked


def _count_marginals(monkeypatch) -> list[int]:
    """The roots of every estimate_marginal call made through the module
    attribute, as approx_partition makes them (and a tracer wraps them)."""
    roots = []
    marginal = estimator.estimate_marginal

    def counted(g, s, v, *args, **kwargs):
        roots.append(v)
        return marginal(g, s, v, *args, **kwargs)

    monkeypatch.setattr(estimator, "estimate_marginal", counted)
    return roots


def test_approx_partition_checks_every_order_entry_before_any_walk(monkeypatch):
    roots = _count_marginals(monkeypatch)
    # 2.0 == 2, so the order passes as a permutation of the free vertices
    with pytest.raises(InvalidParameterError, match="order entry 2.0"):
        approx_partition(path(4), HARDCORE, 0.1, order=[0, 1, 2.0, 3])
    assert roots == []


@pytest.mark.parametrize("g, s", [(random_regular(16, 3, seed=1), CUBIC_SYSTEMS[1]),
                                  (SWAP_GRAPH, SWAPPED_SYSTEMS[0])])
def test_approx_partition_calls_estimate_marginal_once_per_free_vertex(monkeypatch, g, s):
    roots = _count_marginals(monkeypatch)
    fixed = {0: GREEN, 5: BLUE}
    b = Boundary(fixed=fixed)
    order = list(range(g.n - 1, -1, -1))
    pe = approx_partition(g, s, 0.1, b, order=order)
    assert roots == [v for v in order if v not in fixed]
    # the chosen spins go into the driver's own pins, not the caller's
    assert b.fixed is fixed and fixed == {0: GREEN, 5: BLUE}
    assert (pe.chosen_config[0], pe.chosen_config[5]) == (GREEN, BLUE)


# A swapped system (beta > gamma) with pins and per-vertex activities: the
# pins and chosen spins run in the oriented labels, where an error shows in
# no width, so these bits are pinned.
PINNED_PARTITION_GRAPH = Graph(n=16, adj=random_regular(16, 3, seed=2).adj,
                               lambda_v={0: 0.3, 3: 2.5, 7: 0.5, 11: 1.8, 14: 0.4})


@pytest.mark.parametrize("eps, order, expected", [
    (0.01, list(range(15, -1, -1)),
     (-3.818656841208286, -3.811089047228166, "gbbbggbbgbgbbggg", 161)),
    (0.05, None,
     (-3.823815262539178, -3.7793224363082927, "gbbbggbbgbgbbggg", 91)),
])
def test_swapped_pinned_partition_reproduces_pinned_bits(eps, order, expected):
    g, s = PINNED_PARTITION_GRAPH, SpinSystem(0.8, 0.3, 0.3)
    b = Boundary(fixed={2: BLUE, 5: GREEN, 12: BLUE})
    pe = approx_partition(g, s, eps, b, order=order)
    log_z_lo, log_z_hi, config, nodes = expected
    assert (pe.log_z_lo, pe.log_z_hi, pe.expanded) == (log_z_lo, log_z_hi, nodes)
    assert pe.chosen_config == tuple(BLUE if c == "b" else GREEN for c in config)
    assert pe.log_z_lo <= exact_partition(g, s, b).log_z <= pe.log_z_hi


# The accuracy loop decides on each walk's raw ratio ends, mapped into the
# caller's labels; an error in that mapping shows in no containment check
# when it only moves a level, so these bits are pinned: mbased partitions
# that deepen past level 1, in both orientations ...
@pytest.mark.parametrize("s, expected", [
    (SpinSystem(0.4, 2.0, 1.2),
     (16.48703899574931, 16.487039648140772, "ggbggggggggggggg", 157)),
    (SpinSystem(1.5, 0.6, 1.0),
     (11.30345025697088, 11.303450261806915, "bbbbbbbbbgbbbbbb", 165)),
])
def test_mbased_partition_reproduces_pinned_bits(s, expected):
    g, b = PINNED_PARTITION_GRAPH, Boundary(fixed={2: BLUE, 9: GREEN})
    pe = approx_partition(g, s, 1e-6, b, mode="mbased")
    log_z_lo, log_z_hi, config, nodes = expected
    assert (pe.log_z_lo, pe.log_z_hi, pe.expanded, pe.mode) == (log_z_lo, log_z_hi, nodes,
                                                                  "mbased")
    assert pe.chosen_config == tuple(BLUE if c == "b" else GREEN for c in config)
    assert pe.log_z_lo <= exact_partition(g, s, b).log_z <= pe.log_z_hi


# ... a swapped standalone marginal, whole ...
def test_swapped_marginal_reproduces_pinned_bits():
    b = Boundary(fixed={2: BLUE, 5: GREEN, 12: BLUE})
    est = estimate_marginal(PINNED_PARTITION_GRAPH, SpinSystem(0.8, 0.3, 0.3), 4, b, eps=1e-3)
    assert est == MarginalBounds(
        r_lo=1.0168059617417755, r_hi=1.0193745273344437, p_lo=0.5041664795871739,
        p_hi=0.5047971604752334, expanded=41, exact=False, policy="depth", level=7)
    truth = exact_marginal(PINNED_PARTITION_GRAPH, SpinSystem(0.8, 0.3, 0.3), 4, b).p
    assert est.p_lo <= truth <= est.p_hi


# ... and a swapped decay curve, at a free root and at a pinned one
@pytest.mark.parametrize("v, expected", [
    (4, [(1.0, 0.0, 1.0), (0.20556682247738478, 0.4467005076142132, 0.652267330091598),
         (0.13411635672633815, 0.48768016630189714, 0.6217965230282353),
         (0.040037090947787624, 0.4949632882748266, 0.5350003792226142),
         (0.02621092693805882, 0.5013733429834455, 0.5275842699215043)]),
    (2, [(0.0, 1.0, 1.0)] * 5),
])
def test_swapped_decay_curve_reproduces_pinned_bits(v, expected):
    b = Boundary(fixed={2: BLUE, 5: GREEN, 12: BLUE})
    curve = decay_curve(PINNED_PARTITION_GRAPH, SpinSystem(0.8, 0.3, 0.3), v, b, t_max=4)
    assert [(pt.width, pt.p_lo, pt.p_hi) for pt in curve] == expected
