"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they happen.
Every expected value here was computed independently (closed forms, exhaustive
enumeration, or high-precision root finding) before being frozen.
"""
from __future__ import annotations

import functools
import math
import random
import statistics
import time
from collections import deque

import helpers
from spindecay.core import SpinSystem, alpha_sym
from spindecay.estimator import (
    Depth,
    approx_partition,
    bounds,
    decay_curve,
    estimate_marginal,
)
from spindecay.graphs import (
    Graph,
    cycle,
    double_star,
    max_degree,
    path,
    random_regular,
    random_tree,
    star,
)
from spindecay.oracle import exact_marginal, exact_partition
from spindecay.uniqueness import (
    choose_M,
    contraction_bound,
    derivative_unit_roots,
    find_non_monotone_witness,
    fixed_point,
    hardcore_threshold,
    soft_thresholds,
)


def criterion(n: int):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {n}] FAIL", flush=True)
                raise
            print(f"\n[criterion {n}] PASS", flush=True)
        return wrapped
    return deco


# ---------------------------------------------------------------------------
# shared case material (built lazily, cached for the whole module)


@functools.lru_cache(maxsize=1)
def corpus() -> tuple[Graph, ...]:
    return tuple(helpers.small_corpus())


@functools.lru_cache(maxsize=1)
def triples() -> tuple[SpinSystem, ...]:
    return tuple(helpers.antiferro_triples(25, seed=11))


def cases(lamv_seed: int | None):
    """(key, graph, system, boundary) over corpus x triples x boundaries.

    With lamv_seed set, the graph carries per-vertex activities drawn from
    [0.5*lam, 1.5*lam]; boundaries are sampled from the base graph either way.
    """
    for gi, g0 in enumerate(corpus()):
        for si, s in enumerate(triples()):
            g = g0
            if lamv_seed is not None:
                g = helpers.hetero_lambda(g0, s, seed=lamv_seed + 101 * gi + si)
            for bi, b in enumerate(helpers.sample_boundaries(g0, 3, seed=5)):
                yield (gi, si, bi), g, s, b


_ORACLE: dict[tuple, object] = {}


def oracle(key, g, s, b):
    if key not in _ORACLE:
        _ORACLE[key] = exact_marginal(g, s, 0, b)
    return _ORACLE[key]


def to_p(r: float) -> float:
    return 1.0 if math.isinf(r) else r / (1.0 + r)


def check_saw_equals_enumeration(lamv_seed: int | None) -> None:
    started = time.perf_counter()
    for key, g, s, b in cases(lamv_seed):
        want = oracle((lamv_seed, *key), g, s, b)
        got = helpers.exhaustive_ratio(g, s, 0, b)
        assert abs(got - want.ratio) <= 1e-8 * max(1.0, want.ratio), (key, got, want)
        assert abs(to_p(got) - want.p) <= 1e-8, (key, got, want)
    assert time.perf_counter() - started < 60.0


def check_interval_sandwich(lamv_seed: int | None) -> None:
    started = time.perf_counter()
    for key, g, s, b in cases(lamv_seed):
        want = oracle((lamv_seed, *key), g, s, b).ratio
        tol = 1e-9 * max(1.0, want)
        prev = None
        for t in range(7):
            est = bounds(g, s, 0, b, Depth(t))
            assert est.r_lo - tol <= want <= est.r_hi + tol, (key, t, est)
            if prev is not None:
                assert est.r_lo >= prev.r_lo - 1e-9 * max(1.0, abs(prev.r_lo)), (key, t)
                if math.isfinite(prev.r_hi):
                    assert est.r_hi <= prev.r_hi + 1e-9 * max(1.0, prev.r_hi), (key, t)
            prev = est
    assert time.perf_counter() - started < 120.0


@functools.lru_cache(maxsize=1)
def fptas_graphs() -> tuple[Graph, ...]:
    """Connected graphs with n <= 12 and max degree 3, exactly enumerable."""
    gs = [path(2), cycle(4), path(6), cycle(5)]
    for n in (8, 10, 12):
        gs.append(random_regular(n, 3, seed=40 + n))
    seed = 0
    while True:
        seed += 1
        g = random_tree(12, seed)
        if max_degree(g) <= 3:
            gs.append(g)
            return tuple(gs)


def check_fptas(lamv_seed: int | None) -> None:
    started = time.perf_counter()
    for gi, g0 in enumerate(fptas_graphs()):
        for li, lam in enumerate((0.5, 1.0, 1.5)):
            s = SpinSystem(0.0, 1.0, lam)
            g = g0
            if lamv_seed is not None:
                g = helpers.hetero_lambda(
                    g0, s, seed=lamv_seed + 13 * gi + li,
                    require_delta=max_degree(g0) + 1,
                )
            ref = exact_partition(g, s)
            est = approx_partition(g, s, 0.02)
            rel = abs(math.expm1(est.log_z - ref.log_z))
            assert rel <= est.rel_error_bound <= 0.02, (gi, lam, rel)
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# the criteria


@criterion(1)
def test_criterion_01_hardcore_closed_forms():
    hardcore_threshold(1.0, 6)  # warm the import-time machinery once
    for delta, value in ((3, 4.0), (4, 27.0 / 16.0), (5, 256.0 / 243.0)):
        t0 = time.perf_counter()
        rep = hardcore_threshold(1.0, delta)
        elapsed = time.perf_counter() - t0
        assert abs(rep.values[0] - value) <= 1e-12, (delta, rep.values)
        assert rep.witness_d == delta - 1
        assert elapsed < 1e-3, (delta, elapsed)


@criterion(2)
def test_criterion_02_symmetric_threshold_duality():
    rng = random.Random(22)
    for _ in range(20):
        delta = rng.randint(3, 12)
        b = rng.uniform(0.25, 0.95) * (delta - 2) / delta
        lo, hi = soft_thresholds(b, b, delta).values
        assert abs(lo * hi - 1.0) <= 1e-9, (b, delta, lo, hi)


@criterion(3)
def test_criterion_03_unit_derivative_root_product():
    rng = random.Random(33)
    done = 0
    while done < 100:
        beta = rng.uniform(0.05, 0.9)
        gamma = rng.uniform(beta, min(5.0, 0.98 / beta))
        r = math.sqrt(beta * gamma)
        d = max(2, math.ceil((1.0 + r) / (1.0 - r)))
        while (d - 1) < r * (d + 1):
            d += 1
        d += rng.randint(0, 5)
        roots = derivative_unit_roots(beta, gamma, d)
        assert abs(roots.x_low * roots.x_high - gamma / beta) <= 1e-10, (beta, gamma, d)
        deeper = derivative_unit_roots(beta, gamma, d + 1)
        assert deeper.x_low < roots.x_low, (beta, gamma, d)
        assert deeper.x_high > roots.x_high, (beta, gamma, d)
        done += 1


@criterion(4)
def test_criterion_04_walk_tree_equals_enumeration():
    check_saw_equals_enumeration(None)


@criterion(5)
def test_criterion_05_interval_sandwich_and_nesting():
    check_interval_sandwich(None)


@criterion(6)
def test_criterion_06_contraction_certification():
    systems = helpers.unique_systems(30, seed=3)
    grid_max: dict[tuple[int, int], tuple[float, float]] = {}
    for idx, (s, delta) in enumerate(systems):
        for d in range(1, delta):
            fp = fixed_point(s, d)
            bound = math.sqrt(fp.derivative_abs)
            hi = 10.0 * max(fp.x_hat, 1.0)
            # 9999 uniform points plus one refined around the best of them
            xs = [hi * k / 9_998 for k in range(9_999)]
            vals = [alpha_sym(s, d, x) for x in xs]
            i = max(range(len(vals)), key=vals.__getitem__)
            a, c = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            for _ in range(200):
                m1, m2 = a + (c - a) / 3.0, c - (c - a) / 3.0
                if alpha_sym(s, d, m1) < alpha_sym(s, d, m2):
                    a = m1
                else:
                    c = m2
            gm = max(vals[i], alpha_sym(s, d, 0.5 * (a + c)))
            assert gm <= bound + 1e-6, (s, d, gm, bound)
            assert bound + 1e-6 < 1.0, (s, d, bound)
            grid_max[(idx, d)] = (gm, hi)
    rng = random.Random(66)
    for _ in range(10_000):
        idx = rng.randrange(len(systems))
        s, delta = systems[idx]
        d = rng.randint(1, delta - 1)
        gm, hi = grid_max[(idx, d)]
        xs = [rng.uniform(0.0, hi) for _ in range(d)]
        assert helpers.alpha(s, xs) <= gm + 1e-9, (s, d, xs)


@criterion(7)
def test_criterion_07_decay_rate_on_trees():
    made, seed = 0, 0
    while made < 10:
        seed += 1
        g = random_tree(200, seed)

        def farthest(src: int) -> tuple[int, int]:
            dist = [-1] * g.n
            dist[src] = 0
            q = deque([src])
            while q:
                u = q.popleft()
                for w in g.adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        q.append(w)
            far = max(range(g.n), key=lambda u: dist[u])
            return far, dist[far]

        root, _ = farthest(0)
        _, ecc = farthest(root)  # root is a diameter endpoint
        if ecc < 16:
            continue
        delta = max_degree(g) + 1
        s = SpinSystem(0.0, 1.0, 0.7 * hardcore_threshold(1.0, delta).values[0])
        al = contraction_bound(s, delta).alpha
        curve = decay_curve(g, s, root, t_max=14)
        ts = range(4, 15)
        widths = [curve[t].width for t in ts]
        assert all(w > 0.0 for w in widths), (seed, widths)
        slope = statistics.linear_regression(ts, [math.log(w) for w in widths]).slope
        assert slope <= math.log(al) + 0.01, (seed, slope, al)
        made += 1


@criterion(8)
def test_criterion_08_partition_fptas():
    ref = exact_partition(cycle(4), SpinSystem(0.0, 1.0, 1.0))
    assert abs(ref.z - 7.0) <= 1e-12 * 7.0
    ref = exact_partition(path(2), SpinSystem(0.0, 1.0, 1.0))
    assert abs(ref.z - 3.0) <= 1e-12 * 3.0
    check_fptas(None)


@criterion(9)
def test_criterion_09_degree_scaled_truncation():
    s = SpinSystem(0.2, 4.0, 1.0)
    al = contraction_bound(s, math.inf).alpha
    m = choose_M(s, al)
    for g in (star(100), double_star(99)):
        est = estimate_marginal(g, s, 0, eps=0.01, mode="mbased")
        assert est.exact or est.width <= 0.01
        assert est.expanded <= g.n ** 2 * m ** est.level, (g.n, est)
        truth = helpers.exhaustive_ratio(g, s, 0)
        tol = 1e-9 * max(1.0, truth)
        assert est.r_lo - tol <= truth <= est.r_hi + tol, (g.n, truth, est)


@criterion(10)
def test_criterion_10_non_monotone_arity_witness():
    w = find_non_monotone_witness()
    assert w.system.beta > 0.0 and w.system.gamma > 1.0
    assert w.non_unique_d < w.unique_d
    assert fixed_point(w.system, w.non_unique_d).derivative_abs >= 1.0
    assert fixed_point(w.system, w.unique_d).derivative_abs < 1.0


@criterion(11)
def test_criterion_11_heterogeneous_activities():
    check_saw_equals_enumeration(2400)
    check_interval_sandwich(2400)
    check_fptas(4800)
