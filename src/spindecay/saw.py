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
order; the constant below picks ours in one place.

`_walk_single` is the only traversal of the tree.  It walks it iteratively
(an explicit stack, no recursion) and propagates ratio intervals upward
through the recursion of `core`; the estimator calls it for every interval
it reports, and `dump_levels` runs it with a visitor, so the tree
that is dumped is the tree that is evaluated.
"""
from __future__ import annotations

import math

from .core import BLUE, GREEN, LOG_PRODUCT_CUTOFF, SpinSystem, ceil_log, guarded_exp
from .errors import BudgetExceededError, InvalidParameterError
from .graphs import Boundary, Graph

# Blue exactly when the closing edge outranks the departing edge at the
# revisited vertex.  Adjacency lists are ascending, so rank order is id order.
CLOSE_BLUE_WHEN_CLOSING_EDGE_RANKS_HIGHER = True

FREE = "free"
FIXED = "fixed"

_INF = math.inf


def closing_spin(departed_to: int, closing_from: int) -> str:
    """Spin of a cycle-closing leaf at a vertex the walk left via departed_to
    and is re-entered from closing_from."""
    higher = closing_from > departed_to
    if CLOSE_BLUE_WHEN_CLOSING_EDGE_RANKS_HIGHER:
        return BLUE if higher else GREEN
    return GREEN if higher else BLUE


# Frame slots (lists, not objects, for speed):
# 0 origin | 1 children | 2 idx | 3 acc_lo | 4 acc_hi | 5 log_mode
# 6 zero_lo | 7 zero_hi | 8 depth | 9 own_m | 10 child_m | 11 kids_at_frontier
#
# The upper end of a node's interval comes from its children's lower ends and
# vice versa (the recursion is decreasing in each child), so acc_lo collects
# the factors f_lo and acc_hi the factors f_hi.  Exact-zero factors only set
# zero_lo / zero_hi and never enter the running product, so an overflowed
# product is never multiplied by zero.


def _walk_single(
    g: Graph,
    s: SpinSystem,
    root: int,
    lam: list[float],
    fixed: dict[int, str],
    s_set: frozenset[int],
    depth_limit: int | None,
    m_limit: int | None,
    m_base: float | None,
    budget: int | None,
    visit=None,
) -> tuple[float, float, int, bool]:
    """Returns (r_lo, r_hi, frames expanded, any trivial leaf used).

    A child is, in this order: a cycle-closing leaf, a member of the
    differing set s_set (the trivial interval [0, +inf]), a fixed leaf, a
    frontier leaf (also trivial), or a free node that is expanded.  The
    frontier is a depth cutoff, a degree-scaled cutoff (a node's scaled depth
    grows by ceil_log(m_base, d+1) below a parent with d children), or none.
    visit(depth, vertex, spin, expanded), when given, is called on every node
    below the root in depth-first order; spin is None on free nodes.
    """
    beta, gamma = s.beta, s.gamma
    adj = g.adj
    inv_gamma = 1.0 / gamma
    log = math.log
    isinf = math.isinf

    if depth_limit is not None and depth_limit <= 0:
        return 0.0, _INF, 0, True

    def open_frame(origin: int, parent: int | None, depth: int,
                   own_m: int, parent_m: int) -> list:
        kids = [w for w in adj[origin] if w != parent]
        log_mode = len(kids) > LOG_PRODUCT_CUTOFF
        child_m = own_m + ceil_log(m_base, len(kids) + 1) if m_base is not None else 0
        at_frontier = ((depth_limit is not None and depth + 1 >= depth_limit)
                       or (m_limit is not None and parent_m >= m_limit))
        acc = 0.0 if log_mode else 1.0
        return [origin, kids, 0, acc, acc, log_mode, False, False, depth,
                own_m, child_m, at_frontier]

    expanded = 1
    trivial_used = False
    stack = [open_frame(root, None, 0, 0, -1)]
    on_walk: dict[int, int] = {}

    while True:
        fr = stack[-1]
        kids = fr[1]
        idx = fr[2]
        if idx < len(kids):
            fr[2] = idx + 1
            w = kids[idx]
            if w in on_walk:
                spin = closing_spin(on_walk[w], fr[0])
            elif w in s_set:
                spin = None
            elif w in fixed:
                spin = fixed[w]
            elif fr[11]:
                spin = None
            else:
                expanded += 1
                if budget is not None and expanded > budget:
                    raise BudgetExceededError(
                        f"expansion exceeded {budget} nodes at vertex {root}"
                    )
                if visit is not None:
                    visit(fr[8] + 1, w, None, True)
                on_walk[fr[0]] = w
                stack.append(open_frame(w, fr[0], fr[8] + 1, fr[10], fr[9]))
                continue
            if visit is not None:
                visit(fr[8] + 1, w, spin, False)
            if spin is None:
                trivial_used = True
                f_lo, f_hi = beta, inv_gamma
            elif spin == BLUE:
                f_lo = f_hi = beta  # ratio +inf on both ends
            else:
                f_lo = f_hi = inv_gamma  # ratio 0
        else:
            stack.pop()
            on_walk.pop(fr[0], None)
            lam_v = lam[fr[0]]
            if fr[5]:
                lo = 0.0 if fr[6] else guarded_exp(log(lam_v) + fr[3])
                hi = 0.0 if fr[7] else guarded_exp(log(lam_v) + fr[4])
            else:
                lo = 0.0 if fr[6] else lam_v * fr[3]
                hi = 0.0 if fr[7] else lam_v * fr[4]
            if not stack:
                return lo, hi, expanded, trivial_used
            fr = stack[-1]
            f_lo = beta if isinf(hi) else (beta * hi + 1.0) / (hi + gamma)
            f_hi = beta if isinf(lo) else (beta * lo + 1.0) / (lo + gamma)
        if f_lo == 0.0:
            fr[6] = True
        elif fr[5]:
            fr[3] += log(f_lo)
        else:
            fr[3] *= f_lo
        if f_hi == 0.0:
            fr[7] = True
        elif fr[5]:
            fr[4] += log(f_hi)
        else:
            fr[4] *= f_hi


# Any system serves for dump_levels: the tree's shape does not depend on it.
_SHAPE_ONLY = SpinSystem(0.5, 1.0, 1.0)


def dump_levels(g: Graph, v: int, depth: int, boundary: Boundary | None = None) -> dict:
    """JSON-ready dump of the tree that a depth-`depth` cutoff evaluates.

    Nodes above the cutoff carry their children; differing-set members are
    shown as the fixed leaves they are in the boundary.
    """
    if not (0 <= v < g.n):
        raise InvalidParameterError(f"root vertex {v} outside 0..{g.n - 1}")
    fixed = boundary.fixed if boundary is not None else {}
    if v in fixed:
        return {"origin": v, "kind": FIXED, "depth": 0, "spin": fixed[v]}
    root: dict = {"origin": v, "kind": FREE, "depth": 0}
    if depth > 0:
        root["children"] = []
    open_nodes = [root]  # open_nodes[d]: the expanded node at depth d on the current walk

    def visit(d: int, w: int, spin: str | None, is_expanded: bool) -> None:
        node: dict = {"origin": w, "kind": FREE if spin is None else FIXED, "depth": d}
        if spin is not None:
            node["spin"] = spin
        open_nodes[d - 1]["children"].append(node)
        if is_expanded:
            node["children"] = []
            del open_nodes[d:]
            open_nodes.append(node)

    _walk_single(g, _SHAPE_ONLY, v, [1.0] * g.n, fixed, frozenset(), depth,
                 None, None, None, visit)
    return root
