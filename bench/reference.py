"""Independent reference values for the benchmark's correctness checks.

Nothing here imports spindecay.  A model is given as plain data: vertex count
``n``, an edge list, the couplings ``beta`` (blue-blue) and ``gamma``
(green-green), a global activity ``lam`` with optional per-vertex overrides
``lam_v``, and optional pinned spins ``fixed`` ({vertex: "blue" | "green"}).

* ``log_partition`` and ``marginals`` run variable elimination over a
  greedy min-fill order (bucket elimination).  Every intermediate factor is
  rescaled to maximum 1 and the scale is carried as a log, so the sums stay
  finite at any size the elimination width allows.
* ``brute_force_log_partition`` enumerates all assignments; the benchmark's
  tests use it to check the elimination on graphs of at most 16 vertices.
* Closed forms: the hardcore critical activity and star / double-star
  marginals.
* ``is_unique`` decides uniqueness up to a degree bound (or for every degree)
  by solving the d-ary fixed point x = lam * ((beta*x + 1)/(x + gamma))**d by
  bisection and testing |f_d'(x)| < 1.
"""
from __future__ import annotations

import heapq
import math
from functools import lru_cache
from itertools import product

BLUE = "blue"
GREEN = "green"

_EXACT_FILL_DEGREE = 64


# ---------------------------------------------------------------------------
# factor graph of a two-state spin system

class _Factor:
    """A table over binary variables; bit i of an index is scope[i] (1 = blue)."""

    __slots__ = ("scope", "table")

    def __init__(self, scope: tuple[int, ...], table: list[float]):
        self.scope = scope
        self.table = table


def _factors(n, edges, beta, gamma, lam, lam_v, fixed):
    """Unary and pairwise factors with the pinned vertices folded in.

    Returns (factors over free vertices, log of the constant part); the
    constant is -inf when the pinned spins alone have weight zero.
    """
    lam_v = lam_v or {}
    fixed = fixed or {}
    pinned = {}
    for v, spin in fixed.items():
        if spin not in (BLUE, GREEN):
            raise ValueError(f"spin of vertex {v} must be blue or green, got {spin!r}")
        pinned[v] = 1 if spin == BLUE else 0
    log_const = 0.0
    unary = {v: [1.0, float(lam_v.get(v, lam))] for v in range(n) if v not in pinned}
    for v, b in pinned.items():
        if b:
            log_const += math.log(lam_v.get(v, lam))
    pair = [[gamma, 1.0], [1.0, beta]]  # pair[s_u][s_w]
    factors = []
    for u, w in edges:
        if u in pinned and w in pinned:
            weight = pair[pinned[u]][pinned[w]]
            if weight == 0.0:
                return [], -math.inf
            log_const += math.log(weight)
        elif u in pinned or w in pinned:
            free, b = (w, pinned[u]) if u in pinned else (u, pinned[w])
            unary[free][0] *= pair[b][0]
            unary[free][1] *= pair[b][1]
        else:
            a, c = min(u, w), max(u, w)
            # index = s_a + 2*s_c
            factors.append(_Factor((a, c), [pair[0][0], pair[1][0], pair[0][1], pair[1][1]]))
    factors.extend(_Factor((v,), t) for v, t in unary.items())
    return factors, log_const


def min_fill_order(n_vars, edges, keep=()):
    """Greedy min-fill elimination order over vertices 0..n_vars-1 minus keep.

    Ties go to the smaller degree, then the smaller vertex id.  Fill is
    counted exactly up to degree _EXACT_FILL_DEGREE and taken as its upper
    bound d*(d-1)/2 beyond, so hubs cost O(1) to score.  Returns
    (order, width), where width is the largest neighbourhood eliminated.
    """
    nb = [set() for _ in range(n_vars)]
    for u, w in edges:
        nb[u].add(w)
        nb[w].add(u)
    keep = set(keep)
    alive = set(range(n_vars)) - keep

    def score(v):
        ns = list(nb[v])
        d = len(ns)
        if d > _EXACT_FILL_DEGREE:
            return (d * (d - 1) // 2, d, v)
        fill = sum(1 for i in range(d) for j in range(i + 1, d) if ns[j] not in nb[ns[i]])
        return (fill, d, v)

    scores = {v: score(v) for v in alive}
    heap = list(scores.values())
    heapq.heapify(heap)
    order, width = [], 0
    while alive:
        entry = heapq.heappop(heap)
        v = entry[2]
        if v not in alive or scores[v] != entry:
            continue  # stale
        ns = nb[v]
        width = max(width, len(ns))
        order.append(v)
        alive.discard(v)
        # only the neighbours and the common neighbours of newly joined
        # pairs see their fill change
        touched = set(ns)
        listed = sorted(ns)
        for i, a in enumerate(listed):
            nb[a].discard(v)
            for b in listed[i + 1:]:
                if b not in nb[a]:
                    nb[a].add(b)
                    nb[b].add(a)
                    touched |= nb[a] & nb[b]
        for a in touched & alive:
            scores[a] = score(a)
            heapq.heappush(heap, scores[a])
        nb[v] = set()
    return order, width


def _expand(f: _Factor, where: dict[int, int], bits: int) -> list[float]:
    """f's table laid out over a scope of `bits` variables; where maps f's
    variables to their bit positions in that scope."""
    idx = [0]
    for b in range(bits):
        j = where.get(b)
        if j is None:
            idx = idx + idx
        else:
            add = 1 << j
            idx = idx + [i + add for i in idx]
    t = f.table
    return [t[i] for i in idx]


def _eliminate(factors, order, keep):
    """Sum out `order`; returns (log scale, joint table over sorted keep)."""
    log_scale = 0.0
    buckets: dict[int, list[_Factor]] = {}
    rest: list[_Factor] = []
    rank = {v: i for i, v in enumerate(order)}

    def place(f):
        if not f.scope or all(v not in rank for v in f.scope):
            rest.append(f)
        else:
            first = min((v for v in f.scope if v in rank), key=rank.__getitem__)
            buckets.setdefault(first, []).append(f)

    for f in factors:
        place(f)
    for x in order:
        bucket = buckets.pop(x, [])
        if not bucket:
            continue
        others = sorted({v for f in bucket for v in f.scope if v != x})
        scope = others + [x]
        pos = {v: i for i, v in enumerate(scope)}
        prod_t = [1.0] * (1 << len(scope))
        for f in bucket:
            where = {pos[v]: j for j, v in enumerate(f.scope)}
            prod_t = [p * q for p, q in zip(prod_t, _expand(f, where, len(scope)))]
        half = 1 << len(others)
        summed = [a + b for a, b in zip(prod_t[:half], prod_t[half:])]
        top = max(summed)
        if top == 0.0:
            return -math.inf, None
        log_scale += math.log(top)
        place(_Factor(tuple(others), [s / top for s in summed]))
    keep = sorted(keep)
    pos = {v: i for i, v in enumerate(keep)}
    joint = [1.0] * (1 << len(keep))
    for f in rest:
        where = {pos[v]: j for j, v in enumerate(f.scope)}
        joint = [p * q for p, q in zip(joint, _expand(f, where, len(keep)))]
    return log_scale, joint


@lru_cache(maxsize=64)
def _order(n, edges, skip):
    """min_fill_order memoised: the order depends on the graph only, and the
    benchmark asks about one graph under many parameters."""
    free_edges = [(u, w) for u, w in edges if u not in skip and w not in skip]
    return min_fill_order(n, free_edges, keep=skip)


def _prepare(n, edges, beta, gamma, lam, lam_v, fixed, keep=()):
    factors, log_const = _factors(n, edges, beta, gamma, lam, lam_v, fixed)
    order, _ = _order(n, tuple(map(tuple, edges)), frozenset(keep) | frozenset(fixed or {}))
    return factors, log_const, order


def log_partition(n, edges, beta, gamma, lam, lam_v=None, fixed=None) -> float:
    """log Z of the model (conditioned on `fixed`); -inf when Z = 0."""
    factors, log_const, order = _prepare(n, edges, beta, gamma, lam, lam_v, fixed)
    if log_const == -math.inf:
        return -math.inf
    log_scale, joint = _eliminate(factors, order, ())
    if joint is None or joint[0] == 0.0:
        return -math.inf
    return log_const + log_scale + math.log(joint[0])


def marginals(n, edges, beta, gamma, lam, vertices, lam_v=None, fixed=None) -> dict[int, float]:
    """P(v is blue) for each v in `vertices`, conditioned on `fixed`."""
    fixed = fixed or {}
    out = {v: (1.0 if fixed[v] == BLUE else 0.0) for v in vertices if v in fixed}
    keep = sorted(v for v in set(vertices) if v not in fixed)
    if not keep:
        return out
    factors, log_const, order = _prepare(n, edges, beta, gamma, lam, lam_v, fixed, keep)
    if log_const == -math.inf:
        raise ZeroDivisionError("the pinned spins have weight zero")
    _, joint = _eliminate(factors, order, keep)
    if joint is None or sum(joint) == 0.0:
        raise ZeroDivisionError("every configuration has weight zero")
    total = sum(joint)
    for i, v in enumerate(keep):
        out[v] = sum(p for a, p in enumerate(joint) if a >> i & 1) / total
    return out


def elimination_width(n, edges, fixed=None) -> int:
    """Largest neighbourhood the min-fill order eliminates (its treewidth bound)."""
    return _order(n, tuple(map(tuple, edges)), frozenset(fixed or {}))[1]


def brute_force_log_partition(n, edges, beta, gamma, lam, lam_v=None, fixed=None) -> float:
    """log Z by enumerating every assignment of the free vertices."""
    lam_v = lam_v or {}
    fixed = fixed or {}
    free = [v for v in range(n) if v not in fixed]
    total = 0.0
    for bits in product((0, 1), repeat=len(free)):
        spin = {v: fixed[v] == BLUE for v in fixed}
        spin.update(zip(free, map(bool, bits)))
        w = 1.0
        for v in range(n):
            if spin[v]:
                w *= lam_v.get(v, lam)
        for u, x in edges:
            if spin[u] and spin[x]:
                w *= beta
            elif not spin[u] and not spin[x]:
                w *= gamma
        total += w
    return math.log(total) if total > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# closed forms

def hardcore_lambda_c(delta: int) -> float:
    """Critical hardcore activity (beta=0, gamma=1) for maximum degree delta >= 3."""
    return (delta - 1) ** (delta - 1) / (delta - 2) ** delta


def star_marginals(leaves: int, beta: float, gamma: float, lam: float) -> tuple[float, float]:
    """(P(centre blue), P(a leaf blue)) on a star with `leaves` leaves."""
    lb, lg = lam * beta + 1.0, lam + gamma  # one leaf summed out, centre blue / green
    # work relative to the centre-green weight to keep large stars finite
    r = lam * math.exp(leaves * (math.log(lb) - math.log(lg)))  # Z_blue / Z_green
    p_centre = r / (1.0 + r)
    leaf_given_blue = lam * beta / lb
    leaf_given_green = lam / lg
    return p_centre, p_centre * leaf_given_blue + (1.0 - p_centre) * leaf_given_green


def double_star_marginals(leaves: int, beta: float, gamma: float, lam: float) -> tuple[float, float]:
    """(P(a centre blue), P(a leaf blue)) on two adjacent centres with
    `leaves` leaves each."""
    lb, lg = lam * beta + 1.0, lam + gamma
    log_l = {1: leaves * math.log(lb), 0: leaves * math.log(lg)}
    act = {1: lam, 0: 1.0}
    edge = {(1, 1): beta, (0, 0): gamma, (0, 1): 1.0, (1, 0): 1.0}
    top = max(log_l[a] + log_l[b] for a in (0, 1) for b in (0, 1))
    w = {(a, b): act[a] * act[b] * edge[a, b] * math.exp(log_l[a] + log_l[b] - top)
         for a in (0, 1) for b in (0, 1)}
    z = sum(w.values())
    p_centre = (w[1, 0] + w[1, 1]) / z
    leaf_given = {1: lam * beta / lb, 0: lam / lg}
    return p_centre, p_centre * leaf_given[1] + (1.0 - p_centre) * leaf_given[0]


# ---------------------------------------------------------------------------
# uniqueness by fixed-point solves

def _log_f(beta, gamma, lam, d, x):
    return math.log(lam) + d * (math.log(beta * x + 1.0) - math.log(x + gamma))


def fixed_point(beta: float, gamma: float, lam: float, d: int) -> float:
    """The positive fixed point of x -> lam*((beta*x+1)/(x+gamma))**d.

    The map is decreasing, so the fixed point lies in [0, f(0)]."""
    lo, hi = 0.0, math.exp(_log_f(beta, gamma, lam, d, 0.0))
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _log_f(beta, gamma, lam, d, mid) > math.log(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def derivative_at_fixed_point(beta: float, gamma: float, lam: float, d: int) -> float:
    x = fixed_point(beta, gamma, lam, d)
    return d * (1.0 - beta * gamma) * x / ((beta * x + 1.0) * (x + gamma))


def is_unique(beta: float, gamma: float, lam: float, delta) -> bool:
    """|f_d'(x_d)| < 1 for every arity 1 <= d < delta; delta may be math.inf.

    For delta = inf and gamma > 1 the derivative at arity d is at most
    d*lam/gamma**(d+1), which decreases once d > 1/(gamma-1); arities are
    solved one by one until that bound is below 1 and decreasing.
    """
    if delta != math.inf:
        return all(derivative_at_fixed_point(beta, gamma, lam, d) < 1.0
                   for d in range(1, int(delta)))
    if gamma <= 1.0:
        return False
    decreasing_from = math.floor(1.0 / (gamma - 1.0)) + 1
    d = 1
    while True:
        if d >= decreasing_from and math.log(d * lam) - (d + 1) * math.log(gamma) < 0.0:
            return True
        if derivative_at_fixed_point(beta, gamma, lam, d) >= 1.0:
            return False
        d += 1
