"""Brute-force enumeration: closed forms, consistency laws, failure modes."""
from __future__ import annotations

import math

import pytest

from spindecay.core import BLUE, GREEN, SpinSystem
from spindecay.errors import (
    EnumerationCapError,
    InvalidParameterError,
    ZeroWeightError,
)
from spindecay.estimator import exhaustive_ratio
from spindecay.graphs import Boundary, Graph, complete, cycle, from_edges, path
from spindecay.oracle import exact_marginal, exact_partition, log_weight

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
    with pytest.raises(EnumerationCapError):
        exact_partition(path(5), HARDCORE, cap=4)
    exact_partition(path(5), HARDCORE, cap=5)


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
