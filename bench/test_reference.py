"""Checks of the benchmark's reference against brute force and closed forms.

Run from the repository root:  python -m pytest -q bench/test_reference.py
"""
import math
import random

import pytest

import reference as ref


def _random_graph(rng, n, p):
    return [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]


def _random_model(rng, n):
    edges = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
    beta = rng.choice((0.0, rng.uniform(0.0, 1.0)))
    gamma = rng.uniform(0.3, 3.0)
    lam = rng.uniform(0.1, 4.0)
    lam_v = {v: rng.uniform(0.05, 5.0) for v in rng.sample(range(n), n // 4)}
    fixed = {v: rng.choice((ref.BLUE, ref.GREEN)) for v in rng.sample(range(n), n // 5)}
    return edges, beta, gamma, lam, lam_v, fixed


@pytest.mark.parametrize("seed", range(40))
def test_elimination_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    edges, beta, gamma, lam, lam_v, fixed = _random_model(rng, n)
    want = ref.brute_force_log_partition(n, edges, beta, gamma, lam, lam_v, fixed)
    got = ref.log_partition(n, edges, beta, gamma, lam, lam_v, fixed)
    if want == -math.inf:
        assert got == -math.inf
        return
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    free = [v for v in range(n) if v not in fixed]
    probe = rng.sample(free, min(3, len(free)))
    got_p = ref.marginals(n, edges, beta, gamma, lam, probe, lam_v, fixed)
    for v in probe:
        blue = ref.brute_force_log_partition(
            n, edges, beta, gamma, lam, lam_v, {**fixed, v: ref.BLUE})
        want_p = math.exp(blue - want) if blue > -math.inf else 0.0
        assert got_p[v] == pytest.approx(want_p, rel=1e-10, abs=1e-14)


def test_zero_weight_boundary():
    # both ends of a hardcore edge pinned blue
    assert ref.log_partition(2, [(0, 1)], 0.0, 1.0, 1.0, fixed={0: "blue", 1: "blue"}) == -math.inf


def test_min_fill_width_of_known_graphs():
    cycle = [(i, (i + 1) % 12) for i in range(12)]
    assert ref.elimination_width(12, cycle) == 2
    tree = [(i, (i - 1) // 2) for i in range(1, 31)]
    assert ref.elimination_width(31, tree) == 1
    grid = [(r * 4 + c, r * 4 + c + 1) for r in range(10) for c in range(3)]
    grid += [(r * 4 + c, (r + 1) * 4 + c) for r in range(9) for c in range(4)]
    assert ref.elimination_width(40, grid) == 4


@pytest.mark.parametrize("leaves", [1, 2, 4, 7])
@pytest.mark.parametrize("params", [(0.0, 1.0, 0.7), (0.3, 2.0, 1.5), (0.8, 0.9, 3.0)])
def test_star_closed_forms_match_brute_force(leaves, params):
    beta, gamma, lam = params
    for build, closed in ((_star, ref.star_marginals), (_double_star, ref.double_star_marginals)):
        n, edges = build(leaves)
        z = ref.brute_force_log_partition(n, edges, beta, gamma, lam)
        def p_blue(v):
            return math.exp(ref.brute_force_log_partition(
                n, edges, beta, gamma, lam, fixed={v: "blue"}) - z)
        centre, leaf = closed(leaves, beta, gamma, lam)
        assert centre == pytest.approx(p_blue(0), rel=1e-10)
        assert leaf == pytest.approx(p_blue(n - 1), rel=1e-10)


@pytest.mark.parametrize("leaves", [300, 5000])
def test_star_closed_forms_match_elimination_at_scale(leaves):
    beta, gamma, lam = 0.2, 4.0, 1.0
    for build, closed in ((_star, ref.star_marginals), (_double_star, ref.double_star_marginals)):
        n, edges = build(leaves)
        got = ref.marginals(n, edges, beta, gamma, lam, [0, n - 1])
        centre, leaf = closed(leaves, beta, gamma, lam)
        assert got[0] == pytest.approx(centre, rel=1e-9, abs=1e-300)
        assert got[n - 1] == pytest.approx(leaf, rel=1e-9)


def _star(leaves):
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def _double_star(leaves):
    edges = [(0, 1)] + [(c, 2 + c * leaves + i) for c in (0, 1) for i in range(leaves)]
    return 2 + 2 * leaves, edges


@pytest.mark.parametrize("delta", [3, 4, 5, 6, 10])
def test_hardcore_lambda_c_is_the_uniqueness_boundary(delta):
    lc = ref.hardcore_lambda_c(delta)
    assert ref.is_unique(0.0, 1.0, lc * (1 - 1e-6), delta)
    assert not ref.is_unique(0.0, 1.0, lc * (1 + 1e-6), delta)


def test_lambda_c_of_degree_four():
    assert ref.hardcore_lambda_c(4) == pytest.approx(27 / 16, rel=1e-15)


def test_universal_uniqueness_needs_gamma_above_one():
    assert not ref.is_unique(0.1, 1.0, 0.01, math.inf)
    assert ref.is_unique(0.2, 4.0, 1.0, math.inf)
    # finite-degree uniqueness follows from universal uniqueness
    assert all(ref.is_unique(0.2, 4.0, 1.0, d) for d in (2, 5, 50))


def test_fixed_point_solves_the_recursion():
    for beta, gamma, lam, d in ((0.0, 1.0, 1.2, 3), (0.3, 2.5, 40.0, 7), (0.1, 0.9, 0.2, 2)):
        x = ref.fixed_point(beta, gamma, lam, d)
        assert x == pytest.approx(lam * ((beta * x + 1) / (x + gamma)) ** d, rel=1e-12)
