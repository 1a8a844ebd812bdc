"""Walk-tree construction: child order, cycle closures, boundary leaves.

The tree is read through dump_levels, which records the nodes the walk
kernel visits, so every property here is a property of the evaluated tree.
Its flat records are rebuilt into the nested tree by helpers.saw_tree.
"""
from __future__ import annotations

import math
import random
import sys
import threading

import pytest

from spindecay.core import (
    BLUE,
    GREEN,
    LOG_PRODUCT_CUTOFF,
    SpinSystem,
    edge_factor,
    guarded_exp,
    linear_children,
    recursion_f,
)
from spindecay.errors import BudgetExceededError, InvalidParameterError
from spindecay.estimator import Depth, bounds, decay_curve
from spindecay.graphs import (
    Boundary,
    complete,
    cycle,
    double_star,
    from_edges,
    path,
    random_regular,
    star,
)
from spindecay.saw import (
    FIXED,
    FREE,
    MBased,
    dump_levels,
    frontier_factors,
    walker,
)

from helpers import exhaustive_ratio, saw_tree

HARDCORE = SpinSystem(0.0, 1.0, 1.0)
SOFT = SpinSystem(0.3, 1.2, 0.8)


def _tree(g, v, depth, boundary=None):
    return saw_tree(dump_levels(g, v, depth, boundary), depth)


def _child(node, origin):
    return [c for c in node["children"] if c["origin"] == origin][0]


def _size(node):
    return 1 + sum(_size(c) for c in node.get("children", ()))


def _expanded(node):
    kids = node.get("children")
    return 0 if kids is None else 1 + sum(_expanded(c) for c in kids)


def test_children_come_in_ascending_vertex_order():
    g = from_edges(4, [(0, 3), (0, 1), (0, 2)])
    kids = _tree(g, 0, 1)["children"]
    assert [c["origin"] for c in kids] == [1, 2, 3]
    assert all(c["kind"] == FREE and c["depth"] == 1 for c in kids)


def test_parent_edge_is_not_walked_back():
    mid = _tree(path(3), 1, 3)
    assert _child(mid, 0)["children"] == []


def test_triangle_closures_pin_opposite_spins():
    root = _tree(complete(3), 0, 3)

    # 0 -> 1 -> 2 -> 0: the closing edge (2,0) outranks the departure (0,1)
    deep = _child(_child(root, 1), 2)["children"]
    assert len(deep) == 1 and deep[0]["kind"] == FIXED and deep[0]["spin"] == BLUE

    # 0 -> 2 -> 1 -> 0: closing from 1, departure went to 2
    deep = _child(_child(root, 2), 1)["children"]
    assert len(deep) == 1 and deep[0]["kind"] == FIXED and deep[0]["spin"] == GREEN


def test_boundary_vertices_become_fixed_leaves():
    b = Boundary(fixed={2: GREEN})
    leaf = _child(_tree(path(3), 1, 3, b), 2)
    assert leaf["kind"] == FIXED and leaf["spin"] == GREEN
    assert "children" not in leaf  # fixed leaves are never expanded


def _brute_size(adj, v, depth):
    """Independent recount: prefixes of self-avoiding walks from v."""

    def walk(u, visited, walked, d):
        total = 1
        if d == depth:
            return total
        for w in adj[u]:
            if w == walked:
                continue
            if w in visited:
                total += 1  # closure leaf, counted but never expanded
            else:
                total += walk(w, visited | {w}, u, d + 1)
        return total

    return walk(v, frozenset({v}), None, 0)


@pytest.mark.parametrize("g", [complete(4), cycle(5), path(4),
                               from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])])
def test_tree_size_matches_independent_recount(g):
    # depth n + 2 lies past the longest walk, so it is the whole tree
    for depth in (0, 1, 2, g.n + 2):
        assert _size(_tree(g, 0, depth)) == _brute_size(g.adj, 0, depth)


def test_tree_size_respects_boundaries_and_caps():
    g = complete(4)
    b = Boundary(fixed={1: BLUE, 2: BLUE, 3: BLUE})
    assert _size(_tree(g, 0, 6, b)) == 4  # root plus three leaves
    assert _size(_tree(g, 1, 6, b)) == 1  # a pinned root never expands
    with pytest.raises(BudgetExceededError):
        bounds(g, HARDCORE, 0, policy=Depth(6), budget=3)


def test_root_node_validation():
    with pytest.raises(InvalidParameterError):
        dump_levels(path(2), 5, 1)


def test_dump_levels_shape():
    records = dump_levels(cycle(4), 0, 2)
    assert [(r["depth"], r["origin"]) for r in records] == [(0, 0), (1, 1), (2, 2), (1, 3), (2, 2)]
    assert all(set(r) == ({"depth", "origin", "kind", "spin"} if r["kind"] == FIXED
                          else {"depth", "origin", "kind"}) for r in records)
    doc = _tree(cycle(4), 0, depth=2)
    assert doc["origin"] == 0 and doc["kind"] == FREE
    assert {c["origin"] for c in doc["children"]} == {1, 3}
    grand = doc["children"][0]["children"]
    assert all(set(node) <= {"origin", "kind", "spin", "depth", "children"}
               for node in grand)


@pytest.mark.parametrize("boundary", [None, Boundary(fixed={3: BLUE, 5: GREEN}),
                                      Boundary(fixed={3: BLUE, 5: GREEN}, S=frozenset({5}))])
def test_dumped_tree_is_the_evaluated_tree(boundary):
    g = random_regular(10, 3, seed=3)
    for v in (0, 3, 7):
        for t in range(6):
            expanded = bounds(g, SOFT, v, boundary, Depth(t)).expanded
            assert _expanded(_tree(g, v, t, boundary)) == expanded


def test_decay_curve_points_are_depth_walks():
    g = random_regular(16, 3, seed=5)
    b = Boundary(fixed={9: BLUE})
    for v, boundary in ((0, None), (4, b)):
        curve = decay_curve(g, SOFT, v, boundary, t_max=7)
        for pt in curve:
            single = bounds(g, SOFT, v, boundary, Depth(pt.t))
            assert (pt.p_lo, pt.p_hi, pt.width) == (single.p_lo, single.p_hi, single.width)


def test_decay_curve_copies_its_point_at_n_past_n(monkeypatch):
    # from t = n on the tree has no free node at depth t: one walk at n
    # stands for every later cutoff
    walks = []

    def counted(*args):
        built = walker(*args)

        def walk(v, policy):
            walks.append(policy)
            return built.walk(v, policy)

        return built._replace(walk=walk)

    monkeypatch.setattr("spindecay.estimator.walker", counted)
    g = random_regular(10, 3, seed=1)
    for s, boundary in ((SOFT, None), (HARDCORE, Boundary(fixed={4: BLUE}))):
        walks.clear()
        curve = decay_curve(g, s, 0, boundary, t_max=10**5)
        assert len(walks) <= g.n + 1 and len(curve) == 10**5 + 1
        assert [pt.t for pt in curve] == list(range(10**5 + 1))
        for t in (g.n - 1, g.n, g.n + 1, 10**5):
            single = bounds(g, s, 0, boundary, Depth(t))
            assert curve[t][1:] == (single.width, single.p_lo, single.p_hi)
        if boundary is None:  # the last free level still narrows the interval
            assert curve[g.n - 1][1:] != curve[g.n][1:]


_G64 = random_regular(64, 3, seed=1)
_LAM64 = [0.5 + (v % 7) / 10 for v in range(64)]
_SOFT2 = SpinSystem(0.2, 1.5, 0.9)

# (graph, system, root, activities, fixed, differing set, policy) -> the exact
# (r_lo, r_hi, expanded) of the kernel with degree-bounded frontier leaves.
# Children must be visited in ascending order and every factor must enter
# each product in the same order for these to stay equal bit for bit.
_PINNED = {
    "depth-12": ((_G64, _SOFT2, 0, [0.9] * 64, {}, frozenset(), Depth(12)),
                 (0.1818213482814166, 0.1818213522850641, 4878)),
    "depth-14": ((_G64, _SOFT2, 5, _LAM64, {}, frozenset(), Depth(14)),
                 (0.20504835929744555, 0.20504835933922502, 13274)),
    "mbased": ((_G64, _SOFT2, 3, _LAM64, {}, frozenset(), MBased(2.0, 12)),
               (0.16416140300006074, 0.16416211802129038, 320)),
    "mbased-hubs": ((double_star(40), _SOFT2, 0, [1.1] * 82, {}, frozenset(), MBased(3.0, 4)),
                    (5.2572754765649386e-14, 5.2572754765649386e-14, 82)),
    # more than LOG_PRODUCT_CUTOFF children: the products run in log space
    "log-root": ((star(40), _SOFT2, 0, [0.7] * 41, {}, frozenset(), Depth(2)),
                 (2.6569590477022274e-12, 2.6569590477022274e-12, 41)),
    "log-inner": ((double_star(40), _SOFT2, 0, [0.7] * 82, {}, frozenset(), Depth(3)),
                  (1.77130603179929e-12, 1.77130603179929e-12, 82)),
    # the 400 frontier leaves are pendant, so the walk is exact
    "log-saturates": ((star(400), SpinSystem(0.005, 0.01, 1.0), 0, [1.0] * 401, {},
                       frozenset(), Depth(1)),
                      (0.13736471503727105, 0.13736471503727105, 1)),
    # frontier leaves of one child each: 400 factors in [0.0148, 66.3]
    # overflow and underflow the log-space product
    "log-overflows": ((from_edges(801, [(0, i) for i in range(1, 401)]
                                  + [(i, 400 + i) for i in range(1, 401)]),
                       SpinSystem(0.005, 0.01, 1.0), 0, [1.0] * 801, {}, frozenset(), Depth(1)),
                      (0.0, math.inf, 1)),
    # hardcore blue leaves are exact-zero factors
    "boundary": ((_G64, HARDCORE, 0, [1.0] * 64,
                  {1: BLUE, 7: GREEN, 9: BLUE, 20: GREEN, 33: BLUE, 40: GREEN},
                  frozenset({9, 20}), Depth(10)),
                 (0.27368388090901374, 0.3682154825869284, 707)),
    # past n = 6 levels the walk meets no frontier
    "exhaustive": ((complete(6), _SOFT2, 2, [0.9, 1.1, 0.8, 1.3, 0.6, 1.0], {}, frozenset(),
                    Depth(7)),
                   (0.07445742947669122, 0.07445742947669122, 326)),
}


# The intervals of the cases above when every free frontier leaf was
# [0, +inf]; a degree-bounded leaf may only narrow them.
_ZERO_INF_FRONTIER = {
    "boundary": (0.27368388090901374, 0.3700388729659517),
    "depth-12": (0.18182134777407935, 0.18182136585020436),
    "depth-14": (0.20504835929222295, 0.20504835949817599),
    "log-saturates": (0.0, math.inf),
    "mbased": (0.1641613133441924, 0.16416477392044176),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_kernel_reproduces_pinned_bits(case):
    (g, s, root, lam, fixed, s_set, policy), expected = _PINNED[case]
    got = walker(g, s, lam, fixed, s_set, None).walk(root, policy)
    assert got == expected
    lo, hi = _ZERO_INF_FRONTIER.get(case, expected[:2])
    assert lo <= got[0] <= got[1] <= hi


_BUDGET_GRAPH = random_regular(30, 3, seed=2)


def _budget_walker(budget):
    return walker(_BUDGET_GRAPH, _SOFT2, [1.0] * 30, {}, frozenset(), budget).walk


def test_budget_trips_at_an_exact_node_count():
    # the [0, +inf] frontier gave [0.19625645302679012, 0.1962584755391204]
    expected = (0.19625794285505782, 0.1962584146197283, 536)
    assert 0.19625645302679012 <= expected[0] <= expected[1] <= 0.1962584755391204
    assert _budget_walker(None)(0, Depth(9)) == expected
    assert _budget_walker(536)(0, Depth(9)) == expected
    with pytest.raises(BudgetExceededError, match="exceeded 535 nodes"):
        _budget_walker(535)(0, Depth(9))
    # the 9th node is the walk's first at depth 8: a last-level node, whose
    # children are all frontier leaves, computed in its parent's frame while
    # the eight nodes above it are marked on the walk
    expanded = [r["depth"] for r in dump_levels(_BUDGET_GRAPH, 0, 9)
                if r["kind"] == FREE and r["depth"] < 9]
    assert expanded[:9] == list(range(9)) and len(expanded) == 536
    walk = _budget_walker(8)
    with pytest.raises(BudgetExceededError, match="exceeded 8 nodes at vertex 0"):
        walk(0, Depth(9))
    # the walker is clean: a vertex left marked on the walk would close a
    # cycle in the Depth(2) walk of each of its neighbours, 4 nodes each
    fresh = _budget_walker(None)
    for v in range(_BUDGET_GRAPH.n):
        assert walk(v, Depth(2)) == fresh(v, Depth(2))


def test_a_failed_walk_leaves_the_walker_clean():
    # the budget trips deep in the tree, with a whole path marked on the walk
    walk = _budget_walker(535)
    with pytest.raises(BudgetExceededError, match="exceeded 535 nodes"):
        walk(0, Depth(9))
    assert walk(0, Depth(3)) == _budget_walker(535)(0, Depth(3))
    # and a walk that fails deep in a recursion past the recursion limit
    limit = sys.getrecursionlimit()
    g = path(limit + 10)
    lam = [1.0] * g.n
    walk = walker(g, _SOFT2, lam, {}, frozenset(), limit).walk
    with pytest.raises(BudgetExceededError):
        walk(0, Depth(g.n + 1))
    assert walk(0, Depth(5)) == walker(g, _SOFT2, lam, {}, frozenset(), None).walk(0, Depth(5))


def test_one_walker_walks_every_case_of_its_graph_in_any_order():
    # cases over one graph, activities and pins share a walker
    groups: dict[tuple, list[str]] = {}
    for case, ((g, s, _, lam, fixed, s_set, _), _) in sorted(_PINNED.items()):
        key = (id(g), s, tuple(lam), tuple(sorted(fixed.items())), s_set)
        groups.setdefault(key, []).append(case)
    assert max(map(len, groups.values())) >= 2
    for cases in groups.values():
        (g, s, _, lam, fixed, s_set, _), _ = _PINNED[cases[0]]
        for order in (cases, cases[::-1]):
            walk = walker(g, s, lam, fixed, s_set, None).walk
            for case in order + order:
                (_, _, root, _, _, _, policy), expected = _PINNED[case]
                assert walk(root, policy) == expected


def test_a_pin_written_between_walks_holds_from_the_next_walk():
    # approx_partition pins each chosen spin in its one walker: the next
    # walk sees the tree of the updated pins
    g, lam = _G64, _LAM64
    walk, pin, _ = walker(g, _SOFT2, lam, {}, frozenset(), None)
    pins: dict[int, str] = {}
    for v, spin in ((0, BLUE), (1, GREEN), (5, GREEN), (12, BLUE)):
        root = next(u for u in g.adj[v] if u not in pins)
        unpinned = walk(root, Depth(7))
        pins[v] = spin
        pin(v, spin)
        got = walk(root, Depth(7))
        fresh = walker(g, _SOFT2, lam, pins, frozenset(), None).walk
        assert got == fresh(root, Depth(7)) != unpinned


def _hub_graph(rng):
    """A sparse random core on vertices 0-5, vertex 6 pendant on it, and a
    hub, vertex 7, joined to two core vertices and to the 33 pendant
    vertices 8-40: a hub node has 34 or 35 children, past
    LOG_PRODUCT_CUTOFF, and multiplies in log space."""
    edges = {(u, w) for u in range(6) for w in range(u + 1, 6) if rng.random() < 0.5}
    edges |= {(w, 7) for w in rng.sample(range(6), 2)} | {(rng.randrange(6), 6)}
    edges |= {(7, w) for w in range(8, 41)}
    return from_edges(41, sorted(edges))


def _records(g, v, policy, fixed):
    """(scaled depth, vertex, spin) of every node of the tree of v, the root
    first, as the kernel's visitor records them, each node as its parent
    meets it: dump_levels for Depth, and the same visitor for MBased."""
    if isinstance(policy, Depth):
        return [(r["depth"], r["origin"], r.get("spin"))
                for r in dump_levels(g, v, policy.t, Boundary(fixed=fixed))]
    nodes = [(0, v, None)]
    walker(g, SOFT, [1.0] * g.n, fixed, frozenset(), None,
           lambda *node: nodes.append(node)).walk(v, policy)
    return nodes


def _evaluate(g, s, lam, fixed, s_set, records, limit):
    """(r_lo, r_hi, expanded) of a recorded tree, evaluated apart from the
    walker: core.recursion_f at each expanded node over its children's
    ratio ends, and at a frontier leaf the ends its degree allows, whose
    edge factors must be its `frontier_factors` pair.  A node's parent is
    the last node before it of lower scaled depth, and a free node is a
    frontier leaf when its grandparent's scaled depth reaches limit."""
    table = frontier_factors(g, s, lam, s_set)
    tree = [(m, w, spin, []) for m, w, spin in records]
    open_nodes = []
    for node in tree:
        while open_nodes and open_nodes[-1][0] >= node[0]:
            open_nodes.pop()
        if open_nodes:
            open_nodes[-1][3].append(node)
        open_nodes.append(node)
    expanded = 0

    def ends(node, parent_m, grand_m):
        nonlocal expanded
        m, w, spin, kids = node
        if spin is not None:  # a pin, a differing-set member or a closed cycle
            if w in s_set:
                return 0.0, math.inf
            return (math.inf, math.inf) if spin == BLUE else (0.0, 0.0)
        if grand_m >= limit:
            assert kids == []
            k = len(g.adj[w]) - 1
            log_beta = math.log(s.beta) if s.beta > 0.0 else -math.inf
            lo = guarded_exp(math.log(lam[w]) + k * log_beta) if k else lam[w]
            hi = guarded_exp(math.log(lam[w]) - k * math.log(s.gamma)) if k else lam[w]
            assert (edge_factor(s, hi), edge_factor(s, lo)) == table[w]
            return lo, hi
        expanded += 1
        assert len(kids) == len(g.adj[w]) - (parent_m >= 0)
        child = [ends(c, m, parent_m) for c in kids]
        return (recursion_f(s, lam[w], [hi for _, hi in child]),
                recursion_f(s, lam[w], [lo for lo, _ in child]))

    lo, hi = ends(tree[0], -1, -2)
    return lo, hi, expanded


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_walk_equals_an_independent_evaluation_of_its_tree(seed):
    # the walker computes a last-level node in its parent's frame, reads
    # every leaf from one factor list that pin writes, and multiplies zeros
    # straight through in linear mode; dump_levels and the visitor take the
    # recursive call at every node, and multiply as the plain walk does
    rng = random.Random(seed)
    g = _hub_graph(rng)
    # the hub's pendants carry small activities and the hub a large one, so
    # its ratio is large and an ulp of it moves its parent's edge factor
    lam = [rng.uniform(0.3, 2.5) for _ in range(7)] + [40.0]
    lam += [rng.uniform(0.001, 0.01) for _ in range(8, g.n)]
    a, b, c = rng.sample(range(6), 3)
    first = {a: BLUE, b: GREEN, 10: GREEN, 11: BLUE}
    s_set = frozenset({b, 11})
    later = {c: GREEN, 12: BLUE, 13: GREEN}  # pinned between walks
    roots = [7, 6] + [v for v in range(6) if v not in (a, b, c)]
    policies = ([Depth(t) for t in range(1, g.n + 2)]
                + [MBased(m, ell) for m in (1.5, 3.0) for ell in range(1, 8)])
    for s in (SpinSystem(0.0, 1.0, 1.0), SOFT):
        # recursion_f and the walker choose linear or log space alike
        assert linear_children(s, 1e6) == LOG_PRODUCT_CUTOFF
        walk, pin, _ = walker(g, s, lam, first, s_set, None)
        visited_walk, visited_pin, _ = walker(g, s, lam, first, s_set, None,
                                              lambda *node: None)
        pins = dict(first)
        for phase in (first, later):
            for v, spin in phase.items():
                if v not in pins:
                    pin(v, spin)
                    visited_pin(v, spin)
                    pins[v] = spin
            for v in roots:
                for policy in policies:
                    limit = policy.t - 2 if isinstance(policy, Depth) else policy.ell
                    records = _records(g, v, policy, pins)
                    got = walk(v, policy)
                    assert got == _evaluate(g, s, lam, pins, s_set, records,
                                            limit), (s, v, policy)
                    assert visited_walk(v, policy) == got, (s, v, policy)


def test_frontier_factors_stay_in_the_edge_factor_range():
    # k = 399 children: lam*gamma**-k overflows (factor beta) and
    # lam*beta**k underflows (factor 1/gamma); a pendant leaf is a point
    s = SpinSystem(0.005, 0.01, 1.0)
    table = frontier_factors(star(400), s, [1.0] * 401)
    f = (s.beta + 1.0) / (1.0 + s.gamma)
    assert table[0] == (s.beta, 1.0 / s.gamma) and table[1] == (f, f)
    # hardcore: beta = 0 puts the lower ratio at 0 whatever the activity
    assert frontier_factors(path(3), HARDCORE, [2.0] * 3)[1] == (1.0 / 3.0, 1.0)


def _transfer_ratio(s, n, closed):
    """P(blue)/P(green) at vertex 0 of a path (or, closed, a cycle) of n
    vertices, from powers of the transfer matrix T[a][b] = A[a][b] * w[b]
    with A = [[beta, 1], [1, gamma]] and weights w = (lam, 1)."""
    def mul(x, y):
        z = [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in (0, 1)] for i in (0, 1)]
        top = max(map(max, z))  # rescaled: only ratios of entries are read
        return [[v / top for v in row] for row in z]

    power, base = [[1.0, 0.0], [0.0, 1.0]], [[s.beta * s.lam, 1.0], [s.lam, s.gamma]]
    k = n if closed else n - 1
    while k:
        if k & 1:
            power = mul(power, base)
        base, k = mul(base, base), k >> 1
    if closed:
        return power[0][0] / power[1][1]
    return s.lam * (power[0][0] + power[0][1]) / (power[1][0] + power[1][1])


@pytest.fixture
def limits_kept():
    """Each deep walk must leave the recursion limit, the thread stack size
    and the number of threads as it found them."""
    def limits():
        return sys.getrecursionlimit(), threading.stack_size(), threading.active_count()

    before = limits()
    yield lambda: limits() == before
    assert limits() == before


def _walked(b):
    return b.r_lo, b.r_hi, b.expanded, b.exact


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mbased_with_unit_steps_is_a_depth_cutoff(seed):
    # a cubic graph's child counts are 3 at the root and 2 below, and
    # ceil_log(4, d + 1) = 1 for both, so MBased(4, ell) walks Depth(ell + 2)
    g = random_regular(20, 3, seed=seed)
    for ell in range(1, 8):
        for v in (0, 5):
            got, want = (_walked(bounds(g, SOFT, v, policy=policy))
                         for policy in (MBased(4.0, ell), Depth(ell + 2)))
            assert got == want


@pytest.mark.parametrize("closed", [False, True])
def test_walks_deeper_than_the_recursion_limit(closed, limits_kept):
    g = cycle(5000) if closed else path(5000)
    for s in (_SOFT2, SpinSystem(0.4, 2.0, 3.0)):
        assert exhaustive_ratio(g, s, 0) == pytest.approx(_transfer_ratio(s, 5000, closed),
                                                          rel=1e-12)
        assert limits_kept()
    # hardcore at lam = 1: F(n)/F(n+1) on a path, the golden ratio's inverse
    if not closed:
        assert exhaustive_ratio(g, HARDCORE, 0) == pytest.approx((math.sqrt(5) - 1) / 2,
                                                                 rel=1e-15)


def test_deep_walks_run_on_the_callers_thread(limits_kept):
    g = path(5000)
    seen = set()
    walk = walker(g, _SOFT2, [1.0] * g.n, {}, frozenset(), None,
                  lambda *_: seen.add(threading.get_ident())).walk
    lo, hi, nodes = walk(0, Depth(g.n + 1))
    assert lo == hi and nodes == 5000
    assert seen == {threading.get_ident()}
    assert limits_kept()


def test_a_deep_caller_keeps_room_for_a_deep_walk(limits_kept):
    # the walk's 5000 levels come on top of the caller's 600 frames: a limit
    # set to the walk's own depth, not raised from the current one, fails
    g = path(5000)

    def descend(k):
        return bounds(g, HARDCORE, 0, policy=Depth(g.n + 1)) if k == 0 else descend(k - 1)

    b = descend(600)
    assert b.exact and b.r_lo == b.r_hi == exhaustive_ratio(g, HARDCORE, 0)
    assert b.r_lo == pytest.approx((math.sqrt(5) - 1) / 2, rel=1e-15)
    assert limits_kept()


def test_a_deep_caller_gets_room_for_a_walk_below_the_limit(limits_kept):
    # 650 levels fit under the default limit of 1000 on their own, but not
    # beside a caller 400 frames deep: the walker counts those frames
    g = path(650)

    def descend(k):
        return bounds(g, HARDCORE, 0, policy=Depth(651)) if k == 0 else descend(k - 1)

    b = descend(400)
    assert b.exact and b.r_lo == b.r_hi == exhaustive_ratio(g, HARDCORE, 0)
    assert limits_kept()


def test_deep_truncated_walks_and_dumps(limits_kept):
    g = path(5000)
    exact = exhaustive_ratio(g, _SOFT2, 0)
    for policy in (Depth(5000), MBased(1.5, 10**4)):
        b = bounds(g, _SOFT2, 0, policy=policy)
        assert (b.r_lo, b.r_hi, b.expanded, b.exact) == (exact, exact, 5000, True)
        assert limits_kept()
    # every step on a path is 1, so MBased(2, 3000) is Depth(3002): 3002
    # levels, below n but past the recursion limit
    got, want = (_walked(bounds(g, _SOFT2, 0, policy=policy))
                 for policy in (MBased(2.0, 3000), Depth(3002)))
    assert got == want and want[2:] == (3002, False)
    assert limits_kept()
    # an error raised deep in the walk reaches the caller
    with pytest.raises(BudgetExceededError):
        bounds(g, _SOFT2, 0, policy=Depth(5000), budget=4000)
    assert limits_kept()
    node, depth = _tree(path(3000), 0, 3000), 0
    while node.get("children"):
        (node,) = node["children"]
        depth += 1
    assert (depth, node["origin"]) == (2999, 2999)
