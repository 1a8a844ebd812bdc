"""Exact references: partition sums and marginals by variable elimination.

Everything here is deliberately independent of the walk-tree machinery so the
two can check each other.  Pins fold into one unary log-table per free
vertex, and every edge between two free vertices is a 2x2 log-table.  Free
vertices are then summed out one at a time, smallest neighbourhood first
(bucket elimination, Dechter 1999): each step joins the tables that mention
the vertex into one table over it and its neighbours, and sums the vertex
out.  A lazy heap picks each vertex and the vertex's own bucket holds the
factors it joins, so a step costs what its tables cost, not a scan of every
vertex and factor.  Entries stay in log scale, -inf for a vanishing weight,
so large activities stay finite and zero couplings need no special case.

The cap is a hard guard on the largest table: a step that joins k vertices
builds 2^k entries, and it raises once k exceeds the cap.  A graph with at
most `cap` free vertices never does; a complete graph on more always does.
"""
from __future__ import annotations

import heapq
import itertools
import math
from operator import add
from typing import NamedTuple

from .core import BLUE, ENUMERATION_CAP, GREEN, SpinSystem, guarded_exp
from .errors import (
    EnumerationCapError,
    InvalidParameterError,
    ZeroWeightError,
)
from .graphs import Boundary, Graph, require_vertex


def log_weight(g: Graph, s: SpinSystem, spins) -> float:
    """Log weight of one full configuration; -inf when a factor vanishes."""
    if len(spins) != g.n:
        raise InvalidParameterError(
            f"configuration has {len(spins)} spins for {g.n} vertices"
        )
    for v, spin in enumerate(spins):
        if spin not in (BLUE, GREEN):
            raise InvalidParameterError(f"spins[{v}]: unknown spin {spin!r}")
    total = 0.0
    for v, spin in enumerate(spins):
        if spin == BLUE:
            lam_v = g.activity(v, s)
            total += math.log(lam_v)
    for u, v in g.edges():
        if spins[u] == spins[v]:
            coupling = s.beta if spins[u] == BLUE else s.gamma
            if coupling == 0.0:
                return -math.inf
            total += math.log(coupling)
    return total


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def _join(scope: tuple[int, ...], factors) -> list[float]:
    """The log-table over scope that sums the factors' entries.

    Bit i of an index is the spin of scope[i] (set for blue), in the
    factors' tables as here.  The table grows by doubling, one scope vertex
    at a time, and takes in each factor as soon as the factor's last vertex
    is in: through an index list built by the same doubling, so the sum runs
    over whole lists and a factor on the first few vertices stays cheap.
    """
    pos = {v: i for i, v in enumerate(scope)}

    def top(factor) -> int:
        return max(map(pos.__getitem__, factor[0]), default=-1)

    total = [0.0]
    for f in sorted(factors, key=top):
        f_scope, f_table = f
        idx = [0]
        for v in scope[:top(f) + 1]:
            bit = 1 << f_scope.index(v) if v in f_scope else 0
            idx = idx + ([i + bit for i in idx] if bit else idx)
        total = list(map(add, total * (len(idx) // len(total)), map(f_table.__getitem__, idx)))
    return total * ((1 << len(scope)) // len(total))


def _log_sums(
    g: Graph, s: SpinSystem, boundary: Boundary | None, keep: tuple[int, ...], cap: int
) -> tuple[list[float], int, int]:
    """Log partition sums extending the boundary, one per spin assignment of
    the free vertices in keep (indexed as in _join), with the number of free
    vertices and the number of table entries built.  The cap must be an int
    >= 0 (not a bool), else InvalidParameterError; 0 admits only a graph
    with no free vertex."""
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
        raise InvalidParameterError(f"enumeration cap must be a nonnegative integer, got {cap!r}")
    fixed = dict(boundary.fixed) if boundary is not None else {}
    if boundary is not None and boundary.S:
        raise InvalidParameterError("exact oracles need an empty differing set")
    for v in fixed:
        require_vertex(g, v, "fixed vertex")
    log_beta, log_gamma = (math.log(c) if c > 0.0 else -math.inf for c in (s.beta, s.gamma))
    const = sum(math.log(g.activity(v, s)) for v, spin in fixed.items() if spin == BLUE)
    unary = {v: [0.0, math.log(g.activity(v, s))] for v in range(g.n) if v not in fixed}
    edges = []
    nbrs = {v: set() for v in unary}
    for u, w in g.edges():
        if u in fixed and w in fixed:
            if fixed[u] == fixed[w]:
                const += log_beta if fixed[u] == BLUE else log_gamma
        elif u in fixed or w in fixed:
            v, pin = (w, fixed[u]) if u in fixed else (u, fixed[w])
            if pin == BLUE:
                unary[v][1] += log_beta
            else:
                unary[v][0] += log_gamma
        else:
            # entries: both green, u blue, w blue, both blue
            edges.append(((u, w), [log_gamma, 0.0, 0.0, log_beta]))
            nbrs[u].add(w)
            nbrs[w].add(u)

    # Factors keyed by creation number, both in one table and in a bucket per
    # vertex of their scope: dicts keep insertion order, so each bucket lists
    # its factors in creation order, the order _join receives them in.
    factors: dict[int, tuple] = {}
    bucket: dict[int, dict[int, tuple]] = {v: {} for v in unary}
    made = itertools.count()

    def add(factor) -> None:
        key = next(made)
        factors[key] = factor
        for u in factor[0]:
            bucket[u][key] = factor

    for f in edges + [((v,), table) for v, table in unary.items()]:
        add(f)

    terms = 0
    todo = set(unary) - set(keep)
    # a lazy heap: a vertex's live entry is the one keyed by its current
    # neighbourhood size, and the smallest live entry is min(todo) by that key
    heap = [(len(nbrs[u]), u) for u in todo]
    heapq.heapify(heap)
    while todo:
        size, v = heapq.heappop(heap)
        if v not in todo or size != len(nbrs[v]):
            continue
        scope = (v, *sorted(nbrs[v]))  # v first: its spin is the lowest index bit
        if len(scope) > cap:
            raise EnumerationCapError(
                f"summing out vertex {v} joins {len(scope)} vertices, a table of "
                f"2^{len(scope)} entries (cap is 2^{cap})"
            )
        joined = bucket.pop(v)
        for key, f in joined.items():
            del factors[key]
            for u in f[0]:
                if u != v:
                    del bucket[u][key]
        table = _join(scope, joined.values())
        add((scope[1:], list(map(_logaddexp, table[0::2], table[1::2]))))
        terms += len(table)
        for u in nbrs[v]:
            nbrs[u] |= nbrs[v] - {u}
            nbrs[u].discard(v)
            if u in todo:
                heapq.heappush(heap, (len(nbrs[u]), u))
        todo.remove(v)
    table = _join(keep, factors.values())
    if max(table) + const == -math.inf:
        raise ZeroWeightError("every configuration extending the boundary has zero weight")
    return [const + x for x in table], len(unary), terms + len(table)


class ExactResult(NamedTuple):
    log_z: float
    n_free: int
    terms: int  # entries of every table the elimination built

    @property
    def z(self) -> float:
        return guarded_exp(self.log_z)


def exact_partition(
    g: Graph,
    s: SpinSystem,
    boundary: Boundary | None = None,
    cap: int = ENUMERATION_CAP,
) -> ExactResult:
    """Sum the weights of all configurations extending the boundary.

    Raises ZeroWeightError when every term vanishes (the log has nowhere to
    live) and EnumerationCapError when an elimination step would join more
    than `cap` vertices.
    """
    (log_z,), n_free, terms = _log_sums(g, s, boundary, (), cap)
    return ExactResult(log_z=log_z, n_free=n_free, terms=terms)


class ExactMarginal(NamedTuple):
    p: float
    ratio: float
    log_z_blue: float
    log_z_green: float


def exact_marginal(
    g: Graph,
    s: SpinSystem,
    v: int,
    boundary: Boundary | None = None,
    cap: int = ENUMERATION_CAP,
) -> ExactMarginal:
    """Exact blue probability of v from the two log sums with v blue and green.

    One elimination that keeps v gives both; working from their difference
    keeps the ratio stable even when one side dwarfs the other.
    """
    require_vertex(g, v)
    pin = boundary.fixed.get(v) if boundary is not None else None
    if pin is not None:
        lz = exact_partition(g, s, boundary, cap=cap).log_z
        if pin == BLUE:
            return ExactMarginal(p=1.0, ratio=math.inf, log_z_blue=lz, log_z_green=-math.inf)
        return ExactMarginal(p=0.0, ratio=0.0, log_z_blue=-math.inf, log_z_green=lz)
    (lzg, lzb), _, _ = _log_sums(g, s, boundary, (v,), cap)
    if lzg == -math.inf:
        return ExactMarginal(p=1.0, ratio=math.inf, log_z_blue=lzb, log_z_green=lzg)
    if lzb == -math.inf:
        return ExactMarginal(p=0.0, ratio=0.0, log_z_blue=lzb, log_z_green=lzg)
    # p = 1 / (1 + Zg/Zb), evaluated through the log difference
    diff = lzg - lzb
    p = 1.0 / (1.0 + math.exp(diff)) if diff < 700.0 else math.exp(-diff)
    return ExactMarginal(p=p, ratio=guarded_exp(-diff), log_z_blue=lzb, log_z_green=lzg)
