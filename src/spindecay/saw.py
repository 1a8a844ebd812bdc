"""The self-avoiding-walk tree and the one kernel that walks it.

The tree rooted at a free vertex v enumerates the non-backtracking walks out
of v: each node stands for a walk, and its children extend the walk along
every incident edge except the one it arrived by, visited in canonical
(ascending neighbour id) order.  A step that revisits a vertex already on the
walk closes a cycle and becomes a leaf pinned to a spin; a step onto a
boundary-fixed vertex becomes a leaf carrying that spin.  Ratios computed on
this tree equal the true marginal ratios in the original graph.

The cycle-closing spin compares the closing edge with the edge by which the
walk originally left the revisited vertex, both ranked in that vertex's
canonical order: blue when the closing edge ranks higher, green otherwise.
Flipping the comparison corresponds to ranking every adjacency descending
instead of ascending, which is just a different (equally valid) canonical
order.

The walker that `walker` builds is the only traversal of the tree, and the
only code that knows how the pins and the differing set S are held: it
answers a pinned root (a point) and a root in S ([0, +inf]) without a walk,
and takes later pins through `pin`.  It walks the tree with one recursive
call per expanded node, whose state lives in that call's locals, but for
the last level: a node there has only leaves for children, and unless they
are too many to multiply directly (`core.linear_children`) it is computed
in its parent's frame in one flat loop.  It propagates ratio intervals
upward through the recursion of `core`, truncated by one frontier rule:
the root's scaled depth is 0, a node with d children puts them step[d]
below itself, and a free node whose grandparent's scaled depth reaches the
limit is a frontier leaf.  Depth(t)
is unit steps with limit t - 2, so its scaled depth is the depth, and
MBased(m, ell) is steps ceil_log(m, d + 1) with limit ell.  A depth cutoff
past the number of vertices walks the whole tree.  A frontier leaf is not
expanded: it contributes the interval its degree allows, a point at a
pendant vertex, so such a leaf is exact.  Each entry
call builds one walker and walks it once or many times: the estimator for
every interval it reports, and `dump_levels` with a visitor, under which
every node takes the recursive call and is recorded by it, so the tree
that is dumped is the tree that is evaluated.
The recursion is as deep as the longest walk the policy allows; a walk that
would not fit under the interpreter's recursion limit raises the limit for
its duration and runs on the caller's thread, so no graph ends in a
RecursionError.
"""
from __future__ import annotations

import math
import sys
import threading
from collections.abc import Callable
from typing import NamedTuple

from .core import BLUE, GREEN, SpinSystem, ceil_log, edge_factor, guarded_exp, linear_children
from .errors import BudgetExceededError, InvalidParameterError
from .graphs import Boundary, Graph, require_vertex

FREE = "free"
FIXED = "fixed"

_INF = math.inf


class _Depth(NamedTuple):
    t: int


class Depth(_Depth):
    """Unit steps with limit t - 2: free nodes strictly above depth t are
    expanded, and free nodes at depth t are frontier leaves, bounded by
    their degree (`frontier_factors`).  Depth(0) expands nothing, not even
    the root, whose interval is the trivial [0, +inf]."""

    __slots__ = ()

    def __new__(cls, t: int):
        if isinstance(t, bool) or not isinstance(t, int) or t < 0:
            raise InvalidParameterError(
                f"depth cutoff must be a nonnegative integer, got {t!r}")
        return super().__new__(cls, t)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace runs the checks too


class _MBased(NamedTuple):
    m: float
    ell: int


class MBased(_MBased):
    """Degree-scaled truncation with base m and budget ell: the step of a
    node with d children is ceil_log(m, d + 1), and the limit is ell, so
    free nodes whose grandparent's scaled depth reaches ell are frontier
    leaves."""

    __slots__ = ()

    def __new__(cls, m: float, ell: int):
        if not m > 1.0:
            raise InvalidParameterError(f"truncation base must exceed 1, got {m}")
        if isinstance(ell, bool) or not isinstance(ell, int) or ell < 1:
            raise InvalidParameterError(
                f"truncation budget must be a positive integer, got {ell!r}")
        return super().__new__(cls, m, ell)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace runs the checks too


def frontier_factors(g: Graph, s: SpinSystem, lam: list[float],
                     s_set: frozenset[int] = frozenset()) -> list[tuple[float, float]]:
    """(f_lo, f_hi) per vertex w: the edge factor of a free frontier leaf at w.

    Every edge factor (beta*r + 1)/(r + gamma) of an oriented system lies in
    [beta, 1/gamma], so a free tree node at w, with k = deg(w) - 1 children,
    has its ratio in [lam_w * beta**k, lam_w * gamma**-k] whatever lies below
    it.  The factor is decreasing in the ratio, so f_lo is the factor of the
    upper end and f_hi that of the lower end.  The ends are taken in log
    space: an end that overflows is ratio +inf (factor beta), one that
    underflows, or beta = 0 with k >= 1, is ratio 0 (factor 1/gamma).  A
    pendant vertex (k = 0) has ratio lam_w exactly, so its pair is a point.
    A member of the differing set s_set may take either spin, whatever its
    degree, so its pair is the whole range (beta, 1/gamma).  Apart from
    s_set, the table depends on the activities and the degrees only, not on
    any boundary.
    """
    beta, gamma = s.beta, s.gamma
    log_beta = math.log(beta) if beta > 0.0 else -_INF
    log_gamma = math.log(gamma)

    def pair(degree: int, lam_w: float) -> tuple[float, float]:
        k = degree - 1
        if k > 0:
            log_lam = math.log(lam_w)
            r_lo = guarded_exp(log_lam + k * log_beta)
            r_hi = guarded_exp(log_lam - k * log_gamma)
        else:
            r_lo = r_hi = lam_w
        return edge_factor(s, r_hi), edge_factor(s, r_lo)

    # vertices of one degree and activity share a pair, computed once
    pairs: dict[tuple[int, float], tuple[float, float]] = {}
    table = [pairs.get(key) or pairs.setdefault(key, pair(*key))
             for key in zip(map(len, g.adj), lam)]
    for v in s_set:
        table[v] = (beta, 1.0 / gamma)
    return table


# Leaf codes, one per vertex: what a step onto a vertex that is not on the
# walk finds there.  Only the walker reads and writes them.
_FREE, _DIFFERING, _BLUE, _GREEN = 0, 1, 2, 3
# (r_lo, r_hi, nodes) of a root that is not free, by its leaf code
_BOUNDARY_ROOT = {_DIFFERING: (0.0, _INF, 0), _BLUE: (_INF, _INF, 0), _GREEN: (0.0, 0.0, 0)}


# Frames a walk adds beyond one per tree level and the frames above the
# walker's builder: the entry call's own, a visitor, guarded_exp.
_EXTRA_FRAMES = 50
# The recursion limit is per interpreter, so deep walks take turns.
_deep_lock = threading.Lock()


def _deep(call, levels: int):
    """call() under a recursion limit raised by `levels` frames and some,
    on the caller's thread: Python 3.11 and later run a Python call from
    Python code without a C frame, so only the limit stands in the way.
    The raise is counted from the current limit, so a caller that is
    already deep keeps its room; the limit is restored afterwards."""
    with _deep_lock:
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(old + levels + _EXTRA_FRAMES)
        try:
            return call()
        finally:
            sys.setrecursionlimit(old)


class Walker(NamedTuple):
    """What `walker` builds: walk(root, policy) -> (r_lo, r_hi, nodes
    expanded); pin(v, spin), after which v holds spin from the next walk on;
    and free(v), whether v is neither pinned nor in the differing set."""

    walk: Callable[[int, Depth | MBased], tuple[float, float, int]]
    pin: Callable[[int, str], None]
    free: Callable[[int], bool]


def walker(
    g: Graph,
    s: SpinSystem,
    lam: list[float],
    fixed: dict[int, str],
    s_set: frozenset[int],
    budget: int | None,
    visit=None,
) -> Walker:
    """One entry call's walker over the activities lam, the pins fixed and
    the differing set s_set (which lies among the pins), all in the labels
    of s.  walk(root, policy) is one walk of the tree rooted at root; a
    policy that is neither Depth nor MBased raises InvalidParameterError,
    whatever the root, and a root that is not free is answered with 0
    nodes: a pin by its point, a differing-set member by [0, +inf].

    A child is, in this order: a cycle-closing leaf, a member of the
    differing set or a fixed leaf, a frontier leaf, or a free node that is
    expanded.  A leaf that closes no cycle is read from one factor list: a
    differing-set member and a frontier leaf contribute their
    `frontier_factors`, whose table gives each member the trivial interval
    [0, +inf], factors [beta, 1/gamma], and `pin` writes a pin's point pair
    there.  The frontier is the policy's steps
    and limit; Depth(t) with t > n has none, and its walk is a point unless
    it meets a differing-set member.  Point leaves (fixed, cycle-closing,
    and frontier leaves at pendant vertices) keep r_lo == r_hi; the walk is
    exact exactly when its interval is a point.  visit(scaled_depth, vertex,
    spin), when given, is called on every node below the root in
    depth-first order; spin is None on free nodes.  The caller has checked
    that the root and every pin are vertices of g (`require_vertex`).

    A node with at most `linear_children` children, in a walk without a
    visitor, multiplies its factors straight through, zeros included, and
    computes each free child on the last level (its own free children are
    frontier leaves) in one flat loop, without a recursive call.  A node
    with more children, and every node of a walk with a visitor, takes the
    recursive path that sets exact-zero factors apart and multiplies in log
    space past `linear_children`.  Both give the same bits.

    The walker is built once per entry call and walks as often as it is
    asked: the adjacency, the system's constants, the factor list, the
    leaf codes, the recursion, the on-walk list and the count of the frames
    above it are made here.  A walk resets its node count, sets its
    policy's steps and limit, and raises the recursion limit (`_deep`) when
    its levels do not fit beside those frames.  Every walk, finished or
    failed, leaves the on-walk list all -1.  The budget, None or an int
    >= 1 (else InvalidParameterError), applies to each walk.
    """
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, int)
                               or budget < 1):
        raise InvalidParameterError(
            f"node budget must be None or a positive integer, got {budget!r}")
    beta, gamma = s.beta, s.gamma
    adj = g.adj
    n = g.n
    inv_gamma = 1.0 / gamma
    log = math.log
    cap = _INF if budget is None else budget
    # fac[w]: the (f_lo, f_hi) of a leaf at w that closes no cycle
    fac = frontier_factors(g, s, lam, s_set)
    # nodes with more children multiply in log space; with beta = 0 that
    # count follows the largest ratio lam_w * gamma**-k of a child w (k kids)
    r_max = 0.0 if beta > 0.0 else guarded_exp(max(
        log(l) - max(len(a) - 1, 0) * log(gamma) for a, l in zip(adj, lam)))
    linear = linear_children(s, r_max)
    frame, frames = sys._getframe(), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    code = [_FREE] * n

    def pin(v: int, spin: str) -> None:
        if spin == BLUE:
            code[v], fac[v] = _BLUE, (beta, beta)  # ratio +inf on both ends
        else:
            code[v], fac[v] = _GREEN, (inv_gamma, inv_gamma)  # ratio 0

    for v, spin in fixed.items():
        if v not in s_set:  # a member keeps its frontier_factors pair
            pin(v, spin)
    for v in s_set:
        code[v] = _DIFFERING

    # on_walk[v]: the neighbour the walk left v by, or -1 off the walk
    on_walk = [-1] * n
    # Child counts of the tree: a vertex's degree at the root, one less below.
    # Each walk sets step over them, and limit; a frame whose parent's scaled
    # depth reaches limit is at the frontier: its free children are leaves.
    counts = {d for k in set(map(len, adj)) for d in (k, k - 1) if d >= 0}
    step = unit = dict.fromkeys(counts, 1)
    root = expanded = limit = 0

    def expand(u: int, parent: int, own_m: int, parent_m: int):
        """(lo, hi) of the node for vertex u, reached from parent (-1 at the
        root), for a node with more than `linear` children or in a walk
        with a visitor.  The upper end comes from the children's lower ends
        and vice versa (the recursion is decreasing in each child), so
        acc_lo collects the factors f_lo and acc_hi the factors f_hi.
        Exact-zero factors only set zero_lo / zero_hi and never enter the
        running product, so an overflowed product is never multiplied by
        zero."""
        nonlocal expanded
        kids = adj[u]
        d = len(kids) if parent < 0 else len(kids) - 1
        log_mode = d > linear
        frontier = parent_m >= limit
        child_m = own_m + step[d]
        acc_lo = acc_hi = 0.0 if log_mode else 1.0
        zero_lo = zero_hi = False
        for w in kids:
            if w == parent:
                continue
            left = on_walk[w]
            # a step back onto the walk closes a cycle, blue exactly when the
            # closing edge outranks the one the walk left w by (ids ascend)
            c = code[w] if left < 0 else _BLUE if u > left else _GREEN
            if c == _FREE and not frontier:
                expanded += 1
                if expanded > cap:
                    raise BudgetExceededError(
                        f"expansion exceeded {budget} nodes at vertex {root}"
                    )
                if visit is not None:
                    visit(child_m, w, None)
                on_walk[u] = w
                lo, hi = kernel[w](w, u, child_m, own_m)
                f_lo = beta if hi == _INF else (beta * hi + 1.0) / (hi + gamma)
                f_hi = beta if lo == _INF else (beta * lo + 1.0) / (lo + gamma)
            else:
                if c <= _DIFFERING:
                    f_lo, f_hi = fac[w]
                    spin = None
                elif c == _BLUE:
                    f_lo = f_hi = beta  # ratio +inf on both ends
                    spin = BLUE
                else:
                    f_lo = f_hi = inv_gamma  # ratio 0
                    spin = GREEN
                if visit is not None:
                    visit(child_m, w, spin)
            if f_lo == 0.0:
                zero_lo = True
            elif log_mode:
                acc_lo += log(f_lo)
            else:
                acc_lo *= f_lo
            if f_hi == 0.0:
                zero_hi = True
            elif log_mode:
                acc_hi += log(f_hi)
            else:
                acc_hi *= f_hi
        on_walk[u] = -1
        lam_u = lam[u]
        if log_mode:
            lo = 0.0 if zero_lo else guarded_exp(log(lam_u) + acc_lo)
            hi = 0.0 if zero_hi else guarded_exp(log(lam_u) + acc_hi)
        else:
            lo = 0.0 if zero_lo else lam_u * acc_lo
            hi = 0.0 if zero_hi else lam_u * acc_hi
        return lo, hi

    def expand_linear(u: int, parent: int, own_m: int, parent_m: int):
        """expand for a node with at most `linear` children in a walk
        without a visitor.  Its products run straight through, zeros
        included: no partial product of `linear` nonzero factors leaves the
        normal range (`linear_children`), so a 0 never meets an inf, and a
        product with a zero factor is exactly 0.  A free child on the last
        level, one whose own free children are frontier leaves because
        own_m has reached limit, is evaluated here in one flat loop over
        its children, without a call of its own."""
        nonlocal expanded
        kids = adj[u]
        child_m = own_m + step[len(kids) if parent < 0 else len(kids) - 1]
        frontier = parent_m >= limit
        last = own_m >= limit
        acc_lo = acc_hi = 1.0
        for w in kids:
            if w == parent:
                continue
            left = on_walk[w]
            if left >= 0:
                f_lo = f_hi = beta if u > left else inv_gamma
            elif frontier or code[w]:
                f_lo, f_hi = fac[w]
            else:
                expanded += 1
                if expanded > cap:
                    raise BudgetExceededError(
                        f"expansion exceeded {budget} nodes at vertex {root}"
                    )
                node = kernel[w]
                if last and node is expand_linear:
                    # every child of w is a leaf, and u, w's parent, is not
                    # one of them, so u needs no mark on the walk
                    lo = hi = 1.0
                    for x in adj[w]:
                        if x == u:
                            continue
                        left = on_walk[x]
                        if left < 0:
                            x_lo, x_hi = fac[x]
                        else:
                            x_lo = x_hi = beta if w > left else inv_gamma
                        lo *= x_lo
                        hi *= x_hi
                    lam_w = lam[w]
                    lo *= lam_w
                    hi *= lam_w
                else:
                    on_walk[u] = w
                    lo, hi = node(w, u, child_m, own_m)
                f_lo = beta if hi == _INF else (beta * hi + 1.0) / (hi + gamma)
                f_hi = beta if lo == _INF else (beta * lo + 1.0) / (lo + gamma)
            acc_lo *= f_lo
            acc_hi *= f_hi
        on_walk[u] = -1
        lam_u = lam[u]
        return lam_u * acc_lo, lam_u * acc_hi

    # kernel[w]: the function that evaluates a node below the root at w
    kernel = [expand if visit is not None or len(a) - 1 > linear else expand_linear
              for a in adj]

    def walk(v: int, policy: Depth | MBased) -> tuple[float, float, int]:
        nonlocal root, expanded, step, limit
        if not isinstance(policy, (Depth, MBased)):
            raise InvalidParameterError(f"unknown truncation policy {policy!r}")
        if code[v] != _FREE:
            return _BOUNDARY_ROOT[code[v]]
        if isinstance(policy, Depth):
            if policy.t == 0:
                return 0.0, _INF, 0
            step, limit = unit, policy.t - 2
        else:
            step, limit = {d: ceil_log(policy.m, d + 1) for d in counts}, policy.ell
        root, expanded = v, 1
        top = expand if visit is not None or len(adj[v]) > linear else expand_linear
        # The recursion is one frame per tree level: at most n levels, since
        # walks are self-avoiding.  A level adds at least 1 to the scaled
        # depth (every step of a node with children is >= 1), and a frame
        # takes free children only while its parent's scaled depth is below
        # limit, so no node lies deeper than limit + 1.
        levels = min(n, limit + 2)
        try:
            if levels + frames + _EXTRA_FRAMES <= sys.getrecursionlimit():
                lo, hi = top(v, -1, 0, -1)
            else:
                lo, hi = _deep(lambda: top(v, -1, 0, -1), levels)
        except BaseException:
            # a failed walk leaves its path marked; the next walk needs none
            on_walk[:] = [-1] * n
            raise
        return lo, hi, expanded

    return Walker(walk, pin, lambda v: code[v] == _FREE)


# Any system serves for dump_levels: the tree's shape does not depend on it.
_SHAPE_ONLY = SpinSystem(0.5, 1.0, 1.0)


def dump_levels(g: Graph, v: int, depth: int, boundary: Boundary | None = None,
                budget: int | None = None) -> list[dict]:
    """The nodes of the tree that a depth-`depth` cutoff evaluates, in the
    kernel's depth-first order: one JSON-ready record {"depth", "origin",
    "kind"} per node, plus "spin" on fixed nodes.

    A node's parent is the last record before it that is one level up, and
    a free node above the cutoff is expanded.  Differing-set members are
    shown as the fixed leaves they are in the boundary.  More than `budget`
    expanded nodes raise BudgetExceededError, as in every other walk.
    """
    policy = Depth(depth)
    require_vertex(g, v, "root vertex")
    fixed = boundary.fixed if boundary is not None else {}
    for u in fixed:
        require_vertex(g, u, "fixed vertex")
    nodes: list[dict] = []

    def visit(d: int, w: int, spin: str | None) -> None:
        node = {"depth": d, "origin": w, "kind": FREE if spin is None else FIXED}
        if spin is not None:
            node["spin"] = spin
        nodes.append(node)

    visit(0, v, fixed.get(v))
    walker(g, _SHAPE_ONLY, [1.0] * g.n, fixed, frozenset(), budget, visit).walk(v, policy)
    return nodes
