"""Deterministic marginal and partition-function estimation.

Every interval comes from the walk kernel, a `saw.walker` that each entry
call builds once over its oriented activities, pins and differing set, and
that walks the self-avoiding-walk tree once per walk, propagating ratio
intervals upward: a free node at the truncation frontier contributes the
interval its degree allows, [lam_w * beta**k, lam_w * gamma**-k] for
k = deg(w) - 1 (a point at a pendant vertex), and pinned leaves contribute
exact points.  The walker owns that boundary: it answers a pinned root or a
member of the differing set without a walk, and this module only asks it
whether a root is free and pins the spins approx_partition chooses.
approx_partition hands its one prepared input, walker included, to all its
marginals, since pinning a vertex changes neither activities nor degrees.
Every walk is truncated by a policy; a depth cutoff past n walks the whole
tree.  This module holds what is built on the kernel: the accuracy loop, the
decay curve and the partition pipeline.

The interval of every walk is a certificate, whatever its depth, so the
accuracy loop starts at level 1 and deepens by 2 until the measured width
complies.  Interval width contracts by the certified alpha per level, which
turns a target accuracy into the a-priori level ceil(log(4/eps)/log(1/alpha)):
the loop never steps past it, and a width that still fails there is an
error.  It is only a cap; the measured width usually complies many levels
earlier.

The kernel and the certificates need beta <= gamma.  A system with
beta > gamma is the same system with its spin labels swapped, so each entry
point orients and checks its input once (`_prepare`).  `_ends` is the one
place that maps a walk's ratio ends back into the caller's labels, as a
probability interval too: `_interval` makes a record of it for one walk,
and the accuracy loop tests it on each walk's raw ends and makes one
record, of its last walk.

Two truncation policies are supported (both live in `saw`): `Depth`, a plain
depth cutoff for systems unique up to the graph's degree bound, and `MBased`,
a degree-scaled cutoff where descending through a node with d children costs
ceil_log(M, d+1) levels, which keeps the expanded tree polynomial on
unbounded-degree graphs of universally unique systems.

The partition function is assembled by fixing vertices one at a time to
their likelier spin: Z is the weight of the final configuration divided by
the telescoping product of the chosen conditional probabilities, and each
probability's interval [q_lo, q_hi] bounds its factor, so log Z has a
certified interval of log-width sum(log(q_hi/q_lo)).  approx_partition
spends one log-width budget, 2*log1p(eps), vertex by vertex: each deepens
only until its own log-width fits its share of what is left, weighted by its
free neighbours, and a vertex that needs less (an exact one needs none)
leaves the rest to the vertices after it.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .core import (
    BLUE,
    DEFAULT_BUDGET,
    GREEN,
    SpinSystem,
    classify,
    require_antiferromagnetic,
)
from .errors import InvalidParameterError, SpinDecayError
from .graphs import Boundary, Graph, max_degree, require_positive_weight, require_vertex
from .oracle import log_weight
from .saw import Depth, MBased, walker
from .uniqueness import choose_M, contraction_bound

_INF = math.inf


# ---------------------------------------------------------------------------
# result records


class MarginalBounds(NamedTuple):
    r_lo: float
    r_hi: float
    p_lo: float
    p_hi: float
    expanded: int = 0
    exact: bool = False
    policy: str = ""
    level: int = 0

    @property
    def width(self) -> float:
        return self.p_hi - self.p_lo


def _to_p(r: float) -> float:
    return 1.0 if math.isinf(r) else r / (1.0 + r)


def _invert_ratio(r: float) -> float:
    return _INF if r == 0.0 else 0.0 if math.isinf(r) else 1.0 / r


def _ends(r_lo: float, r_hi: float,
          swapped: bool) -> tuple[float, float, float, float]:
    """(r_lo, r_hi, p_lo, p_hi) in the caller's labels of a walk's ratio
    ends in the oriented ones."""
    if r_lo > r_hi:  # only ever by accumulated rounding; keep the order sane
        r_lo, r_hi = r_hi, r_lo
    # r / (1 + r) is not monotone in floating point: one ulp apart in r can
    # invert in p, so take the ends' min and max to keep a certificate
    p_a, p_b = _to_p(r_lo), _to_p(r_hi)
    p_lo, p_hi = min(p_a, p_b), max(p_a, p_b)
    if not swapped:
        return r_lo, r_hi, p_lo, p_hi
    # back in the caller's labels, where blue and green trade places
    return _invert_ratio(r_hi), _invert_ratio(r_lo), 1.0 - p_hi, 1.0 - p_lo


class _Input(NamedTuple):
    """One call's input in the orientation beta <= gamma (`_prepare`), and
    the three calls of its one walker (`saw.walker`), which holds the pins
    and the differing set in that orientation."""

    system: SpinSystem
    lam: list[float]
    walk: Callable[[int, Depth | MBased], tuple[float, float, int]]
    pin: Callable[[int, str], None]
    free: Callable[[int], bool]
    swapped: bool


def _prepare(g: Graph, s: SpinSystem, boundary: Boundary | None, budget: int | None,
             *checks) -> _Input:
    """One call's input, oriented and checked once: beta <= gamma, and when
    classify() swaps the labels to get there, activities invert and pins
    flip.  Raises InvalidParameterError unless that system is
    anti-ferromagnetic and every pin is a vertex of g (the differing set
    lies among the pins); then runs the caller's own argument checks in
    order, and then the zero-weight scan.  Last it builds the call's one
    walker over those activities, pins and differing set, which applies
    `budget` to each walk."""
    cls = classify(s)
    require_antiferromagnetic(cls.system)
    fixed, s_set = (boundary.fixed, boundary.S) if boundary is not None else ({}, frozenset())
    for v in fixed:
        require_vertex(g, v, "fixed vertex")
    for check in checks:
        check()
    require_positive_weight(g, s, boundary)
    lam = [g.activity(v, s) for v in range(g.n)]
    if cls.swapped:
        lam = [1.0 / l for l in lam]
        fixed = {v: GREEN if spin == BLUE else BLUE for v, spin in fixed.items()}
    return _Input(cls.system, lam, *walker(g, cls.system, lam, fixed, s_set, budget),
                  cls.swapped)


def _interval(prep: _Input, v: int, policy: Depth | MBased) -> MarginalBounds:
    """The interval of root v in the caller's labels: one walk of prep's
    walker under `policy`, exact when its interval is a point, and named
    "fixed" at level 0 when v is pinned or in the differing set.  The caller
    has checked that v is a vertex of g.  Raises InvalidParameterError when
    the policy is neither Depth nor MBased, whatever the root."""
    r_lo, r_hi, expanded = prep.walk(v, policy)
    if not prep.free(v):
        name, level = "fixed", 0
    elif isinstance(policy, Depth):
        name, level = "depth", policy.t
    else:
        name, level = "mbased", policy.ell
    return MarginalBounds(*_ends(r_lo, r_hi, prep.swapped), expanded, r_lo == r_hi,
                          name, level)


# ---------------------------------------------------------------------------
# public interval evaluation


def bounds(
    g: Graph,
    s: SpinSystem,
    v: int,
    boundary: Boundary | None = None,
    policy: Depth | MBased = Depth(0),
    budget: int | None = DEFAULT_BUDGET,
) -> MarginalBounds:
    """Certified ratio and probability interval for vertex v being blue.

    Every assignment extending the boundary off its differing set has its
    true marginal inside [p_lo, p_hi]; deeper policies only tighten it.
    Raises ZeroWeightError when the boundary has zero weight.
    """
    prep = _prepare(g, s, boundary, budget)
    require_vertex(g, v)
    return _interval(prep, v, policy)


# ---------------------------------------------------------------------------
# accuracy-driven estimation


class _Strategy(NamedTuple):
    mode: str  # "depth" | "mbased"
    alpha: float
    m_base: float | None


def _require_accuracy(mode: str, eps: float) -> None:
    if mode not in ("depth", "mbased"):
        raise InvalidParameterError(f"mode must be 'depth' or 'mbased', got {mode!r}")
    if not (eps > 0.0) or not math.isfinite(eps):
        raise InvalidParameterError(f"eps must be positive and finite, got {eps!r}")


def _resolve_strategy(g: Graph, s: SpinSystem, lam: list[float], mode: str) -> _Strategy:
    """The certified decay rate of a mode for an oriented system and its
    activities, with the truncation base for "mbased"; raises UniquenessError
    (with the failing arity) when some activity is not unique up to the
    mode's degree bound: the graph's for "depth", none for "mbased"."""
    delta = max(2, max_degree(g) + 1) if mode == "depth" else math.inf
    systems = [s.with_field(l) for l in sorted(set(lam))]
    alpha = max(contraction_bound(sl, delta).alpha for sl in systems)
    m_base = max(choose_M(sl, alpha) for sl in systems) if mode == "mbased" else None
    return _Strategy(mode=mode, alpha=alpha, m_base=m_base)


def _level_for(eps: float, alpha: float) -> int:
    if alpha <= 0.0:
        return 1
    return max(1, math.ceil(math.log(4.0 / eps) / math.log(1.0 / alpha)))


def _likelier(p_lo: float, p_hi: float) -> tuple[str, float, float]:
    """The spin whose interval has the larger midpoint (blue on a tie), with
    that spin's probability interval [q_lo, q_hi], of a blue interval
    [p_lo, p_hi]."""
    if p_lo + p_hi >= 1.0:
        return BLUE, p_lo, p_hi
    return GREEN, 1.0 - p_hi, 1.0 - p_lo


def _log_width(p_lo: float, p_hi: float) -> float:
    """log(q_hi/q_lo) of the likelier spin, as approx_partition spends it."""
    _, q_lo, q_hi = _likelier(p_lo, p_hi)
    return math.log(q_hi) - math.log(q_lo) if q_lo > 0.0 else _INF


def estimate_marginal(
    g: Graph,
    s: SpinSystem,
    v: int,
    boundary: Boundary | None = None,
    eps: float = 1e-2,
    mode: str = "depth",
    budget: int | None = DEFAULT_BUDGET,
    _run: tuple[_Input, _Strategy, float] | None = None,
) -> MarginalBounds:
    """Blue-marginal interval of width at most eps.

    Every walk's interval is a certificate, so levels start at 1 and deepen
    by 2 until the measured width complies (an exactly evaluated tree stops
    immediately, whatever eps).  The steps never pass the level that the
    certified contraction assigns to eps, where the width provably complies,
    so the loop ends; a width still above eps there raises SpinDecayError.

    approx_partition passes `_run`: its oriented and checked input, whose
    walker holds the pins so far, its strategy, and a log-width share with
    eps = tanh(share/2).  Nothing is then prepared, checked or built again,
    and boundary, mode and budget go unused.  A walk then complies as soon
    as its likelier spin's interval has log(q_hi/q_lo) <= share.  A p-width
    of at most tanh(share/2) around a midpoint of at least 1/2 implies that,
    so the same cap ends the loop.  The cap is computed only after a walk that
    does not comply, so a share of 0, which approx_partition gives only to
    a vertex whose first walk is exact, never reaches it.

    mode is "depth" (needs uniqueness up to the graph's degree bound) or
    "mbased" (needs universal uniqueness).  `expanded` is the total over all
    walks, and the budget applies to each walk, as in decay_curve.  Each
    walk is tested on its raw ends, and one MarginalBounds is made, of the
    walk that complies.  Raises
    UniquenessError when the mode's regime does not cover the instance,
    ZeroWeightError when the boundary has zero weight, and
    BudgetExceededError when a walk runs out of budget.
    """
    if _run is None:
        prep = _prepare(g, s, boundary, budget, lambda: _require_accuracy(mode, eps))
        if boundary is not None and boundary.S:
            raise InvalidParameterError(
                "estimate_marginal needs an empty differing set; width cannot "
                "shrink below the gap a differing set forces"
            )
        require_vertex(g, v)
        if not prep.free(v):  # any policy serves a pin, which needs no certificate
            return _interval(prep, v, Depth(0))
        strat, share = _resolve_strategy(g, prep.system, prep.lam, mode), None
    else:
        prep, strat, share = _run
    walk, name, m_base, swapped = prep.walk, strat.mode, strat.m_base, prep.swapped
    level, spent, cap = 1, 0, None
    while True:
        r_lo, r_hi, nodes = walk(v, Depth(level) if name == "depth" else MBased(m_base, level))
        spent += nodes
        ends = _ends(r_lo, r_hi, swapped)
        width = ends[3] - ends[2]
        if (r_lo == r_hi or width <= eps
                or (share is not None and _log_width(ends[2], ends[3]) <= share)):
            return MarginalBounds(*ends, spent, r_lo == r_hi, name, level)
        if cap is None:  # only now: a share of 0 comes with an exact first walk
            cap = _level_for(eps, strat.alpha)
        if level >= cap:
            raise SpinDecayError(
                f"width {width} still above eps={eps} at the certified level {cap}; "
                "this should be unreachable for a certified strategy"
            )
        level = min(level + 2, cap)


class PartitionEstimate(NamedTuple):
    log_z: float
    log_z_lo: float
    log_z_hi: float
    rel_error_bound: float
    chosen_config: tuple[str, ...]
    per_vertex_p: tuple[tuple[int, float], ...]
    eps: float
    mode: str
    expanded: int = 0


# The largest log-width one vertex may spend: p-width 1/2 (tanh(log(3)/2)),
# so every chosen probability stays at least 1/4 however large eps is.
_MAX_SHARE = math.log(3.0)


def _rounding_allowance(terms: int, magnitude: float) -> float:
    """A generous bound on the float error of summing `terms` logarithms of
    total magnitude `magnitude`, so an interval of exact walks keeps the
    rounding of its own arithmetic inside it."""
    return 8.0 * (terms + 2) * 2.0 ** -52 * (magnitude + 1.0)


def approx_partition(
    g: Graph,
    s: SpinSystem,
    eps: float,
    boundary: Boundary | None = None,
    order: list[int] | None = None,
    mode: str = "depth",
    budget: int | None = DEFAULT_BUDGET,
) -> PartitionEstimate:
    """Deterministic approximation of the (boundary-conditioned) partition sum.

    Vertices are fixed one at a time to their likelier spin under the current
    conditioning.  The chosen spin's interval [q_lo, q_hi] holds its true
    conditional probability, so log Z lies in
    [log w - sum(log q_hi), log w - sum(log q_lo)] for the final
    configuration's weight w.  That interval's log-width is a budget B of
    2*log1p(eps), spent by weights known before any walk: the i-th of the k
    free vertices (in `order`) has f_i neighbours still free at its turn
    and weight w_i = f_i * (k - i), and it deepens until its log-width fits
    min(R_i * w_i / W_i, log 3), where R_i is the budget left and W_i the
    weight of the vertices from the i-th on.  What it leaves unspent rolls
    forward.  No vertex spends more than its share, so R_i >= B * W_i / W_0,
    and a vertex with f_i > 0 keeps at least min(B * w_i / W_0, log 3), at
    least 2B/(D*k*(k+1)) at maximum degree D.  A vertex with f_i = 0 has
    every neighbour pinned, so its first walk is exact on a share of 0.
    The interval is widened by a float rounding allowance; log_z is its
    midpoint and rel_error_bound = expm1(half-width), which bounds the
    relative error of exp(log_z) and is at most eps (up to that allowance).
    `expanded` totals the nodes of every walk.  Raises
    ZeroWeightError when two pinned neighbours share a zero coupling; that
    is checked once, as each vertex is only pinned to a spin whose q_lo > 0.
    The input is oriented and checked once, every order entry included,
    before any walk; each chosen spin is then pinned in the one walker that
    every marginal walks.
    """
    def require_no_differing_set():
        if boundary is not None and boundary.S:
            raise InvalidParameterError("approx_partition needs an empty differing set")

    prep = _prepare(g, s, boundary, budget, lambda: _require_accuracy(mode, eps),
                    require_no_differing_set)
    fixed0 = boundary.fixed if boundary is not None else {}

    free = [v for v in range(g.n) if v not in fixed0]
    if order is None:
        elim = free
    else:
        for v in order:
            require_vertex(g, v, "order entry")
        elim = [v for v in order if v not in fixed0]
        if sorted(elim) != sorted(free):
            raise InvalidParameterError(
                "order must enumerate every free vertex exactly once"
            )
    n_free = len(elim)
    if n_free == 0:
        spins = tuple(fixed0[v] for v in range(g.n))
        lw = log_weight(g, s, spins)
        return PartitionEstimate(
            log_z=lw, log_z_lo=lw, log_z_hi=lw, rel_error_bound=0.0, chosen_config=spins,
            per_vertex_p=(), eps=eps, mode="exact",
        )

    strat = _resolve_strategy(g, prep.system, prep.lam, mode)
    # the i-th vertex weighs its neighbours still free at its turn times the
    # n_free - i vertices left; `total` is the weight of the unfixed vertices
    pos = [-1] * g.n
    for i, v in enumerate(elim):
        pos[v] = i
    weight = [sum(pos[u] > i for u in g.adj[v]) * (n_free - i) for i, v in enumerate(elim)]
    total = sum(weight)
    sigma = [fixed0.get(v) for v in range(g.n)]  # in the caller's labels
    remaining = 2.0 * math.log1p(eps)
    sum_lo = sum_hi = 0.0  # sums of log q_lo and log q_hi over the chosen spins
    expanded = 0
    chosen_p: list[tuple[int, float]] = []
    for i, v in enumerate(elim):
        # a vertex of weight 0 has every neighbour pinned: its first walk is exact
        share = min(remaining * weight[i] / total, _MAX_SHARE) if weight[i] else 0.0
        total -= weight[i]
        est = estimate_marginal(g, s, v, eps=math.tanh(0.5 * share),
                                _run=(prep, strat, share))
        expanded += est.expanded
        spin, q_lo, q_hi = _likelier(est.p_lo, est.p_hi)
        if q_lo <= 0.0:
            raise SpinDecayError(f"conditional probability degenerated at vertex {v}")
        log_lo, log_hi = math.log(q_lo), math.log(q_hi)
        remaining -= log_hi - log_lo
        sum_lo += log_lo
        sum_hi += log_hi
        sigma[v] = spin
        prep.pin(v, BLUE if (spin == BLUE) != prep.swapped else GREEN)
        chosen_p.append((v, 0.5 * (q_lo + q_hi)))

    spins = tuple(sigma)
    lw = log_weight(g, s, spins)
    if lw == -_INF:
        raise SpinDecayError(
            "chosen configuration has zero weight; marginal estimates were inconsistent"
        )
    slack = _rounding_allowance(g.n + g.edge_count() + 2 * n_free,
                                abs(lw) + abs(sum_lo) + abs(sum_hi))
    log_z_lo, log_z_hi = lw - sum_hi - slack, lw - sum_lo + slack
    return PartitionEstimate(
        log_z=0.5 * (log_z_lo + log_z_hi),
        log_z_lo=log_z_lo,
        log_z_hi=log_z_hi,
        rel_error_bound=math.expm1(0.5 * (log_z_hi - log_z_lo)),
        chosen_config=spins,
        per_vertex_p=tuple(chosen_p),
        eps=eps,
        mode=strat.mode,
        expanded=expanded,
    )


class DecayPoint(NamedTuple):
    t: int
    width: float
    p_lo: float
    p_hi: float


def decay_curve(
    g: Graph,
    s: SpinSystem,
    v: int,
    boundary: Boundary | None = None,
    t_max: int = 10,
    budget: int | None = DEFAULT_BUDGET,
) -> list[DecayPoint]:
    """Probability-interval width at every depth cutoff 0..t_max.

    Each point up to t = n is its own kernel walk, equal to bounds() at
    Depth(t), with the budget applying to each walk.  From t = n on the tree
    has no free node at depth t, so every later point repeats the walk at n
    bit for bit and is copied from it.  The curve costs min(t_max, n) + 1
    walks, about twice its deepest point on trees of branching 2.  Widths are
    nonincreasing.  Raises ZeroWeightError when the boundary has zero weight.
    """
    def require_cutoff():
        if isinstance(t_max, bool) or not isinstance(t_max, int):
            raise InvalidParameterError(f"t_max must be an integer, got {t_max!r}")
        if t_max < 0:
            raise InvalidParameterError(f"t_max must be nonnegative, got {t_max}")

    prep = _prepare(g, s, boundary, budget, require_cutoff)
    require_vertex(g, v)
    out = []
    for t in range(min(t_max, g.n) + 1):
        b = _interval(prep, v, Depth(t))
        out.append(DecayPoint(t=t, width=b.width, p_lo=b.p_lo, p_hi=b.p_hi))
    out.extend(out[-1]._replace(t=t) for t in range(g.n + 1, t_max + 1))
    return out
