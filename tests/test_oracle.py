"""The exact oracle: closed forms, consistency laws, failure modes, and
agreement with a brute force."""
from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindecay.core import BLUE, GREEN, SpinSystem
from spindecay.errors import (
    EnumerationCapError,
    InvalidParameterError,
    ZeroWeightError,
)
from spindecay.graphs import Boundary, Graph, complete, cycle, from_edges, path
from spindecay.oracle import exact_marginal, exact_partition, log_weight

from helpers import brute_log_z, exhaustive_ratio

HARDCORE = SpinSystem(0.0, 1.0, 1.0)


def test_single_edge_closed_form():
    s = SpinSystem(0.3, 1.7, 2.0)
    z = exact_partition(path(2), s).z
    assert z == pytest.approx(s.lam**2 * s.beta + 2 * s.lam + s.gamma, rel=1e-12)


def test_hardcore_counts_independent_sets():
    # path(4): 8 independent sets; cycle(4): 7; triangle at lam=2: 1 + 3*2
    assert exact_partition(path(4), HARDCORE).z == pytest.approx(8.0, rel=1e-12)
    assert exact_partition(cycle(4), HARDCORE).z == pytest.approx(7.0, rel=1e-12)
    s2 = SpinSystem(0.0, 1.0, 2.0)
    assert exact_partition(complete(3), s2).z == pytest.approx(7.0, rel=1e-12)


def test_per_vertex_activities_in_the_weight():
    g = from_edges(2, [(0, 1)], lambda_v={0: 2.0, 1: 3.0})
    s = SpinSystem(0.5, 1.5, 9.9)  # global activity must be ignored here
    z = exact_partition(g, s).z
    assert z == pytest.approx(2.0 * 3.0 * 0.5 + 2.0 + 3.0 + 1.5, rel=1e-12)


def test_disjoint_components_multiply():
    g = from_edges(5, [(0, 1), (2, 3), (3, 4)])
    s = SpinSystem(0.2, 1.4, 0.7)
    whole = exact_partition(g, s).log_z
    a = exact_partition(path(2), s).log_z
    b = exact_partition(path(3), s).log_z
    assert whole == pytest.approx(a + b, rel=1e-12)


def test_conditioning_splits_the_sum():
    g = cycle(5)
    s = SpinSystem(0.1, 2.0, 1.3)
    z = exact_partition(g, s).log_z
    zb = exact_partition(g, s, Boundary(fixed={2: BLUE})).log_z
    zg = exact_partition(g, s, Boundary(fixed={2: GREEN})).log_z
    merged = max(zb, zg) + math.log1p(math.exp(-abs(zb - zg)))
    assert merged == pytest.approx(z, rel=1e-12)


def test_marginal_consistency():
    g = cycle(5)
    s = SpinSystem(0.1, 2.0, 1.3)
    m = exact_marginal(g, s, 2)
    assert 0.0 < m.p < 1.0
    assert m.ratio == pytest.approx(m.p / (1.0 - m.p), rel=1e-10)
    pinned = exact_marginal(g, s, 2, Boundary(fixed={2: BLUE}))
    assert pinned.p == 1.0 and math.isinf(pinned.ratio)


def test_marginal_ratio_stays_finite_past_exp_700():
    # log ratio = log(1e306) = 704.6, which the float range still holds
    s = SpinSystem(0.5, 1.0, 1e306)
    g = from_edges(1, [])
    m = exact_marginal(g, s, 0)
    assert m.ratio == pytest.approx(exhaustive_ratio(g, s, 0), rel=1e-12)
    assert m.p == 1.0


def test_zero_weight_is_reported():
    g = path(3)
    b = Boundary(fixed={0: BLUE, 1: BLUE})
    with pytest.raises(ZeroWeightError):
        exact_partition(g, HARDCORE, b)


def test_one_sided_zero_weight_gives_a_point_marginal():
    g = path(2)
    b = Boundary(fixed={1: BLUE})
    m = exact_marginal(g, HARDCORE, 0, b)
    assert m.p == 0.0 and m.ratio == 0.0


def test_enumeration_cap():
    # the first elimination step on K5 joins all five vertices
    with pytest.raises(EnumerationCapError):
        exact_partition(complete(5), HARDCORE, cap=4)
    exact_partition(complete(5), HARDCORE, cap=5)


@pytest.mark.parametrize("cap", [float("nan"), "5", None, 2.5, -1, True])
def test_a_cap_that_is_no_nonnegative_int_is_refused(cap):
    # nan once switched the guard off; the others raised a TypeError or
    # reached the cap check and named a cap of 2^True or 2^2.5
    with pytest.raises(InvalidParameterError, match=re.escape(f"got {cap!r}")):
        exact_partition(complete(4), HARDCORE, cap=cap)
    with pytest.raises(InvalidParameterError, match=re.escape(f"got {cap!r}")):
        exact_marginal(complete(4), HARDCORE, 0, cap=cap)


def test_a_cap_of_zero_admits_only_a_graph_with_no_free_vertex():
    pinned = Boundary(fixed={v: GREEN for v in range(4)})
    assert exact_partition(complete(4), HARDCORE, pinned, cap=0).n_free == 0
    assert exact_marginal(complete(4), HARDCORE, 0, pinned, cap=0).p == 0.0
    with pytest.raises(EnumerationCapError, match=re.escape("(cap is 2^0)")):
        exact_partition(complete(4), HARDCORE, cap=0)
    with pytest.raises(EnumerationCapError, match=re.escape("(cap is 2^0)")):
        exact_marginal(complete(4), HARDCORE, 0, cap=0)


def test_log_weight_by_hand():
    g = cycle(3)
    s = SpinSystem(0.5, 2.0, 3.0)
    w = log_weight(g, s, (BLUE, BLUE, GREEN))
    assert w == pytest.approx(math.log(3.0 * 3.0 * 0.5), rel=1e-12)
    assert log_weight(g, HARDCORE, (BLUE, BLUE, GREEN)) == -math.inf
    with pytest.raises(InvalidParameterError):
        log_weight(g, s, (BLUE, BLUE))
    with pytest.raises(InvalidParameterError):
        log_weight(g, s, (BLUE, "red", GREEN))


def test_walk_ratio_equals_enumeration_on_cyclic_graphs():
    wheel = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                           (1, 2), (2, 3), (3, 4), (4, 1)])
    for s in (HARDCORE, SpinSystem(0.25, 1.6, 0.9)):
        for v in (0, 1):
            assert exhaustive_ratio(wheel, s, v) == pytest.approx(
                exact_marginal(wheel, s, v).ratio, rel=1e-9
            )


def test_walk_ratio_with_boundary():
    g = cycle(6)
    s = SpinSystem(0.2, 1.5, 1.1)
    b = Boundary(fixed={3: GREEN, 4: BLUE})
    assert exhaustive_ratio(g, s, 0, b) == pytest.approx(
        exact_marginal(g, s, 0, b).ratio, rel=1e-9
    )


def test_large_activity_stays_in_log_scale():
    g = path(6)
    s = SpinSystem(0.0, 1.0, 1e150)
    res = exact_partition(g, s)
    assert math.isfinite(res.log_z)
    # the four independent sets of size three dominate: Z ~ 4 * lam^3
    assert res.log_z == pytest.approx(3 * math.log(1e150) + math.log(4.0), rel=1e-12)


_ACTIVITIES = st.floats(1e-100, 1e100)
_COUPLINGS = st.just(0.0) | st.floats(1e-3, 1e3)


@st.composite
def _instances(draw):
    """Graphs on at most 12 vertices with per-vertex activities, random pins
    and any couplings: zero ones, and beta > gamma."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vertices = st.integers(0, n - 1)
    g = from_edges(n, edges, lambda_v=draw(st.dictionaries(vertices, _ACTIVITIES)))
    s = SpinSystem(draw(_COUPLINGS), draw(_COUPLINGS), draw(_ACTIVITIES))
    pins = draw(st.dictionaries(vertices, st.sampled_from([BLUE, GREEN]), max_size=4))
    return g, s, Boundary(fixed=pins), draw(vertices)


def _agrees(log_sum: float, truth: float) -> bool:
    return log_sum == truth or math.isclose(log_sum, truth, rel_tol=1e-12, abs_tol=1e-12)


@given(_instances())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_brute_force(instance):
    g, s, b, v = instance
    k = g.n - len(b.fixed)  # a cap of k never raises
    truth = brute_log_z(g, s, b.fixed)
    if truth == -math.inf:
        with pytest.raises(ZeroWeightError):
            exact_partition(g, s, b, cap=k)
    else:
        res = exact_partition(g, s, b, cap=k)
        assert _agrees(res.log_z, truth) and res.n_free == k
    blue, green = (
        brute_log_z(g, s, {**b.fixed, v: spin}) if b.fixed.get(v, spin) == spin else -math.inf
        for spin in (BLUE, GREEN)
    )
    if blue == green == -math.inf:
        with pytest.raises(ZeroWeightError):
            exact_marginal(g, s, v, b, cap=k)
    else:
        m = exact_marginal(g, s, v, b, cap=k)
        assert _agrees(m.log_z_blue, blue) and _agrees(m.log_z_green, green)
