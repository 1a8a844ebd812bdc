"""Shared test fixtures: independent references, graph corpus, parameter
samples, boundary sampling.

`recursion_f` and `alpha` are the tests' references for the tree recursion
and its contraction rate at any child ratios: the library needs only their
symmetric forms (`core.symmetric_map`, `core.alpha_sym`), and the walk
kernel evaluates the recursion on its own.  Everything is seeded so
failures reproduce; the corpus is deduplicated up to isomorphism so no case
is silently tested twice.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

import networkx as nx
from hypothesis import strategies as st

from spindecay.core import (
    BLUE,
    GREEN,
    SpinSystem,
    edge_factor,
    guarded_exp,
    linear_children,
    require_antiferromagnetic,
    swap_spins,
)
from spindecay.errors import InvalidParameterError
from spindecay.estimator import Depth, bounds
from spindecay.graphs import Boundary, Graph, from_edges, random_regular
from spindecay.saw import FREE
from spindecay.uniqueness import is_unique_up_to


def recursion_f(s: SpinSystem, lam_v: float, children: Iterable[float]) -> float:
    """Ratio at a vertex with activity lam_v from its children's ratios.

    Empty child list gives lam_v.  Past `linear_children` children the
    product accumulates in log space, so no partial product of a run of
    large or small factors leaves the float range early.  An exact zero
    factor (beta = 0 with a forced-blue child) makes the ratio exactly 0 in
    either mode; it never enters the running product.
    """
    if lam_v <= 0 or not math.isfinite(lam_v):
        raise InvalidParameterError(f"vertex activity must be positive and finite, got {lam_v!r}")
    children = list(children)
    factors = [edge_factor(s, r) for r in children]
    if 0.0 in factors:
        return 0.0
    # the walk kernel accumulates in this order, so the two agree exactly
    # wherever their cutoffs do
    if len(factors) <= linear_children(s, max(children, default=0.0)):
        return lam_v * math.prod(factors)
    acc = 0.0
    for f in factors:
        acc += math.log(f)
    return guarded_exp(math.log(lam_v) + acc)


def alpha(s: SpinSystem, xs: Sequence[float]) -> float:
    """Amortised one-step contraction of the recursion at child ratios xs.

    With F = lam * prod_i (beta*x_i + 1)/(x_i + gamma) (the recursion value),

        alpha = (1 - beta*gamma) * sqrt(F) / (sqrt(beta*F + 1) * sqrt(F + gamma))
                * sum_i sqrt(x_i / ((beta*x_i + 1) * (x_i + gamma)))

    Each summand is evaluated as a single quotient under one square root; the
    factored form keeps adjacent near-equal terms from cancelling.  An empty
    xs gives 0 (a childless vertex propagates no error).
    """
    require_antiferromagnetic(s)
    for x in xs:
        if not math.isfinite(x) or x < 0:
            raise InvalidParameterError(f"child ratios must be finite and nonnegative, got {x!r}")
    if len(xs) == 0:
        return 0.0
    big_f = recursion_f(s, s.lam, xs)
    pref = (1.0 - s.beta * s.gamma) * math.sqrt(big_f) / (
        math.sqrt(s.beta * big_f + 1.0) * math.sqrt(big_f + s.gamma)
    )
    total = 0.0
    for x in xs:
        total += math.sqrt(x / ((s.beta * x + 1.0) * (x + s.gamma)))
    return pref * total


def to_graph(G: nx.Graph) -> Graph:
    nodes = sorted(G.nodes())
    idx = {u: i for i, u in enumerate(nodes)}
    return from_edges(len(nodes), [(idx[u], idx[v]) for u, v in G.edges()])


def _nx_corpus() -> list[nx.Graph]:
    out: list[nx.Graph] = []
    for n in range(2, 6):
        out.append(nx.path_graph(n))
    for n in range(3, 7):
        out.append(nx.cycle_graph(n))
    for n in range(3, 8):
        out.append(nx.complete_graph(n))
    out.append(nx.star_graph(4))
    out.append(nx.complete_bipartite_graph(2, 3))
    out.append(nx.complete_bipartite_graph(3, 3))
    out.append(nx.circular_ladder_graph(3))
    out.append(nx.wheel_graph(5))
    rng = random.Random(7)
    while len(out) < 26:
        n = rng.randint(5, 7)
        G = nx.gnp_random_graph(n, rng.uniform(0.35, 0.7), seed=rng.randint(0, 10**6))
        if nx.is_connected(G):
            out.append(G)
    return out


def small_corpus() -> list[Graph]:
    """Connected graphs on at most 7 vertices, distinct up to isomorphism."""
    kept: list[nx.Graph] = []
    for G in _nx_corpus():
        if any(nx.is_isomorphic(G, H) for H in kept):
            continue
        kept.append(G)
    return [to_graph(G) for G in kept]


def antiferro_triples(count: int = 25, seed: int = 11) -> list[SpinSystem]:
    """Seeded anti-ferromagnetic parameter triples, hardcore cases included."""
    out = [
        SpinSystem(0.0, 1.0, 1.0),
        SpinSystem(0.0, 1.0, 0.5),
        SpinSystem(0.5, 1.5, 1.0),
    ]
    rng = random.Random(seed)
    while len(out) < count:
        beta = rng.choice([0.0, round(rng.uniform(0.0, 0.9), 3)])
        gamma = round(rng.uniform(max(beta, 0.2), 3.0), 3)
        if gamma < beta or beta * gamma >= 0.98:
            continue
        lam = round(rng.uniform(0.1, 3.0), 3)
        out.append(SpinSystem(beta, gamma, lam))
    return out[:count]


def sample_boundaries(g: Graph, count: int = 3, seed: int = 5) -> list[Boundary]:
    """Random partial assignments that keep vertex 0 free.

    Blue pins are never adjacent to one another, so every boundary stays
    feasible even at beta = 0 (the all-green extension has positive weight).
    """
    rng = random.Random(seed * 1009 + g.n * 31 + g.edge_count())
    out: list[Boundary] = []
    for _ in range(count):
        fixed: dict[int, str] = {}
        for v in range(1, g.n):
            roll = rng.random()
            if roll < 0.25:
                if any(fixed.get(w) == BLUE for w in g.adj[v]):
                    fixed[v] = GREEN
                else:
                    fixed[v] = BLUE
            elif roll < 0.5:
                fixed[v] = GREEN
        out.append(Boundary(fixed=fixed))
    return out


def unique_systems(count: int = 30, seed: int = 3) -> list[tuple[SpinSystem, int]]:
    """(system, delta) pairs with certified uniqueness below delta."""
    rng = random.Random(seed)
    out: list[tuple[SpinSystem, int]] = []
    while len(out) < count:
        delta = rng.randint(3, 8)
        beta = round(rng.uniform(0.0, 0.7), 3)
        gamma = round(rng.uniform(max(beta, 0.3), 2.5), 3)
        if gamma < beta or beta * gamma >= 0.98:
            continue
        lam = round(rng.uniform(0.05, 2.0), 3)
        s = SpinSystem(beta, gamma, lam)
        if is_unique_up_to(s, delta).unique:
            out.append((s, delta))
    return out


def hetero_lambda(
    g: Graph,
    s: SpinSystem,
    seed: int,
    lo: float = 0.5,
    hi: float = 1.5,
    require_delta: int | None = None,
) -> Graph:
    """Copy of g with per-vertex activities in [lo*lam, hi*lam].

    With require_delta set, each activity is resampled until the system with
    that global activity stays unique below the bound (at most 200 tries,
    then the base activity is kept).
    """
    rng = random.Random(seed)
    lamv: dict[int, float] = {}
    for v in range(g.n):
        value = s.lam
        for _ in range(200):
            cand = rng.uniform(lo * s.lam, hi * s.lam)
            if require_delta is None or is_unique_up_to(s.with_field(cand), require_delta).unique:
                value = cand
                break
        lamv[v] = value
    return Graph(n=g.n, adj=g.adj, lambda_v=lamv, labels=g.labels)


def brute_log_z(g: Graph, s: SpinSystem, fixed: dict[int, str]) -> float:
    """log Z over the configurations that extend the pins, -inf when every
    weight vanishes: each configuration listed and weighed on its own."""
    free = [v for v in range(g.n) if v not in fixed]
    logs = []
    for spins in itertools.product((GREEN, BLUE), repeat=len(free)):
        conf = {**fixed, **dict(zip(free, spins))}
        factors = [g.activity(v, s) for v in range(g.n) if conf[v] == BLUE]
        factors += [s.beta if conf[u] == BLUE else s.gamma
                    for u, w in g.edges() if conf[u] == conf[w]]
        if 0.0 not in factors:
            logs.append(sum(map(math.log, factors)))
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


# A cubic graph with one per-vertex activity, for the beta > gamma checks;
# vertices 1 and 3 are neighbours.
SWAP_GRAPH = Graph(n=10, adj=random_regular(10, 3, seed=1).adj, lambda_v={2: 1.5})

FLIP = {BLUE: GREEN, GREEN: BLUE}


def hand_swapped(
    g: Graph, s: SpinSystem, boundary: Boundary | None
) -> tuple[Graph, SpinSystem, Boundary | None]:
    """The same instance with blue and green relabelled by hand: couplings
    exchanged, every activity inverted, every pin flipped."""
    g2 = Graph(n=g.n, adj=g.adj, lambda_v={v: 1.0 / l for v, l in g.lambda_v.items()})
    b2 = None if boundary is None else Boundary(
        fixed={v: FLIP[sp] for v, sp in boundary.fixed.items()}, S=boundary.S)
    return g2, swap_spins(s), b2


def exhaustive_ratio(g: Graph, s: SpinSystem, v: int, boundary: Boundary | None = None) -> float:
    """The ratio of root v from a walk of its whole tree: a depth cutoff past
    n meets no frontier, so the interval is a point."""
    b = bounds(g, s, v, boundary, Depth(g.n + 1))
    assert b.exact, (b.r_lo, b.r_hi)
    return b.r_lo


def inverted(r: float) -> float:
    """1/r on [0, +inf], with 0 and +inf exchanged."""
    return math.inf if r == 0.0 else 0.0 if math.isinf(r) else 1.0 / r


# Any JSON value: null, booleans, integers, floats (NaN and infinities
# included), short strings, and lists and objects of these.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=12,
)


def saw_tree(records: list[dict], cutoff: int) -> dict:
    """The nested walk tree that the flat records of a depth-`cutoff` dump
    describe: each node a copy of its record, and a free node above the
    cutoff, which the walk expanded, also holds its "children"."""
    open_nodes: list[dict] = []  # open_nodes[d]: the latest node at depth d
    for record in records:
        node, depth = dict(record), record["depth"]
        if node["kind"] == FREE and depth < cutoff:
            node["children"] = []
        del open_nodes[depth:]
        if open_nodes:
            open_nodes[-1]["children"].append(node)
        open_nodes.append(node)
    return open_nodes[0]
