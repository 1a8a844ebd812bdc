"""Deterministic marginal and partition-function estimation.

Every interval comes from the walk kernel `saw._walk_single`, which walks the
self-avoiding-walk tree once per call and propagates ratio intervals upward:
free nodes at the truncation frontier contribute the trivial interval
[0, +inf] and pinned leaves contribute exact points.  This module holds what
is built on it: the truncation policies, the accuracy loop, the decay curve
and the partition pipeline.  Interval width contracts by the certified
alpha per level, which turns a target accuracy into a depth.

Two truncation shapes are supported: a plain depth cutoff for bounded-degree
graphs, and a degree-scaled cutoff where descending through a node with d
children costs ceil_log(M, d+1) levels, which keeps the expanded tree
polynomial on unbounded-degree graphs.

The partition function is assembled by fixing vertices one at a time: each
conditional marginal is estimated to within eps/(4n), the likelier spin is
fixed (its probability is at least 1/3 after estimation error), and the
telescoping product of the chosen probabilities divides the weight of the
final configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BLUE, GREEN, SpinSystem, ceil_log, require_antiferromagnetic
from .errors import InvalidParameterError, SpinDecayError, UniquenessError
from .graphs import Boundary, Graph, max_degree
from .oracle import log_weight
from .saw import _walk_single
from .uniqueness import choose_M, contraction_bound, is_unique_up_to

DEFAULT_BUDGET = 5_000_000

_INF = math.inf


# ---------------------------------------------------------------------------
# policies and result records


@dataclass(frozen=True)
class Depth:
    """Expand free nodes strictly above depth t; the rest get [0, +inf]."""

    t: int


@dataclass(frozen=True)
class MBased:
    """Degree-scaled truncation with base m and budget ell.

    A node's scaled depth grows by ceil_log(m, d+1) when its parent has d
    children; nodes whose grandparent's scaled depth reaches ell are trivial.
    """

    m: float
    ell: int


@dataclass(frozen=True)
class MarginalBounds:
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


def _make_bounds(r_lo: float, r_hi: float, expanded: int, exact: bool,
                 policy: str, level: int) -> MarginalBounds:
    if r_lo > r_hi:  # only ever by accumulated rounding; keep the order sane
        r_lo, r_hi = r_hi, r_lo
    # r / (1 + r) is not monotone in floating point: one ulp apart in r can
    # invert in p, so take the ends' min and max to keep a certificate
    p_a, p_b = _to_p(r_lo), _to_p(r_hi)
    return MarginalBounds(
        r_lo=r_lo, r_hi=r_hi, p_lo=min(p_a, p_b), p_hi=max(p_a, p_b),
        expanded=expanded, exact=exact, policy=policy, level=level,
    )


def _activities(g: Graph, s: SpinSystem) -> list[float]:
    return [g.activity(v, s) for v in range(g.n)]


def _boundary_parts(boundary: Boundary | None) -> tuple[dict[int, str], frozenset[int]]:
    if boundary is None:
        return {}, frozenset()
    return boundary.fixed, boundary.S


def _pinned_root(g: Graph, v: int, fixed: dict[int, str],
                 s_set: frozenset[int]) -> MarginalBounds | None:
    """The interval of a root the boundary decides without a walk, else None."""
    if not (0 <= v < g.n):
        raise InvalidParameterError(f"vertex {v} outside 0..{g.n - 1}")
    if v in s_set:
        return _make_bounds(0.0, _INF, 0, False, "fixed", 0)
    if v in fixed:
        r = _INF if fixed[v] == BLUE else 0.0
        return _make_bounds(r, r, 0, True, "fixed", 0)
    return None


def _walk(g: Graph, s: SpinSystem, v: int, lam: list[float], fixed: dict[int, str],
          s_set: frozenset[int], policy: Depth | MBased,
          budget: int | None) -> MarginalBounds:
    """One kernel walk under a validated policy."""
    if isinstance(policy, Depth):
        name, level = "depth", policy.t
        walked = _walk_single(g, s, v, lam, fixed, s_set, level, None, None, budget)
    else:
        name, level = "mbased", policy.ell
        walked = _walk_single(g, s, v, lam, fixed, s_set, None, level, policy.m, budget)
    r_lo, r_hi, expanded, trivial = walked
    return _make_bounds(r_lo, r_hi, expanded, not trivial, name, level)


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
    """
    require_antiferromagnetic(s)
    fixed, s_set = _boundary_parts(boundary)
    pinned = _pinned_root(g, v, fixed, s_set)
    if pinned is not None:
        return pinned
    if isinstance(policy, Depth):
        if policy.t < 0:
            raise InvalidParameterError(f"depth cutoff must be nonnegative, got {policy.t}")
    elif isinstance(policy, MBased):
        if policy.m <= 1.0:
            raise InvalidParameterError(f"truncation base must exceed 1, got {policy.m}")
        if policy.ell < 1:
            raise InvalidParameterError(f"truncation budget must be positive, got {policy.ell}")
    else:
        raise InvalidParameterError(f"unknown truncation policy {policy!r}")
    return _walk(g, s, v, _activities(g, s), fixed, s_set, policy, budget)


def exhaustive_ratio(
    g: Graph,
    s: SpinSystem,
    v: int,
    boundary: Boundary | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> float:
    """Exact ratio from expanding the whole walk tree (no truncation).

    The walk tree is finite, so with no frontier the interval collapses to a
    point; this is the reference the truncated estimates converge to.
    """
    require_antiferromagnetic(s)
    fixed, s_set = _boundary_parts(boundary)
    if s_set:
        raise InvalidParameterError("exhaustive evaluation needs an empty differing set")
    pinned = _pinned_root(g, v, fixed, s_set)
    if pinned is not None:
        return pinned.r_lo
    lam = _activities(g, s)
    r_lo, r_hi, expanded, trivial = _walk_single(
        g, s, v, lam, fixed, s_set, None, None, None, budget
    )
    if trivial:
        raise SpinDecayError("exhaustive walk unexpectedly hit a frontier")
    if r_lo != r_hi:
        raise SpinDecayError(
            f"exhaustive walk produced a non-degenerate interval [{r_lo}, {r_hi}]"
        )
    return r_lo


# ---------------------------------------------------------------------------
# accuracy-driven estimation


@dataclass(frozen=True)
class _Strategy:
    mode: str  # "depth" | "mbased"
    alpha: float
    m_base: float | None
    level_cap: int


def _resolve_strategy(g: Graph, s: SpinSystem, mode: str) -> _Strategy:
    delta = max(2, max_degree(g) + 1)
    lams = sorted({g.activity(v, s) for v in range(g.n)})

    def finite_ok() -> bool:
        return all(is_unique_up_to(s.with_field(l), delta) for l in lams)

    def universal_ok() -> bool:
        return s.gamma > 1.0 and all(
            is_unique_up_to(s.with_field(l), math.inf) for l in lams
        )

    if mode == "auto":
        mode = "depth" if finite_ok() else "mbased" if universal_ok() else "none"
    if mode in ("depth", "none"):
        if not finite_ok():
            bad = next(
                (l, is_unique_up_to(s.with_field(l), delta))
                for l in lams
                if not is_unique_up_to(s.with_field(l), delta)
            )
            d_bad = bad[1].violating.d if bad[1].violating else None
            suffix = "" if mode == "depth" else "; degree-scaled truncation does not apply either"
            raise UniquenessError(
                f"activity {bad[0]} is not unique up to {delta}"
                + (f" (fails at arity {d_bad})" if d_bad else "")
                + suffix,
                violating_d=d_bad,
            )
        alpha = max(contraction_bound(s.with_field(l), delta).alpha for l in lams)
        # walks are self-avoiding, so no free node sits deeper than n - 1
        return _Strategy(mode="depth", alpha=alpha, m_base=None, level_cap=g.n + 1)
    if mode == "mbased":
        if not universal_ok():
            raise UniquenessError(
                "degree-scaled truncation needs gamma > 1 and universal "
                "uniqueness at every per-vertex activity"
            )
        alpha = max(contraction_bound(s.with_field(l), math.inf).alpha for l in lams)
        m_base = max(choose_M(s.with_field(l), alpha) for l in lams)
        per_level = ceil_log(m_base, max(2, max_degree(g) + 1))
        return _Strategy(
            mode="mbased", alpha=alpha, m_base=m_base,
            level_cap=g.n * max(1, per_level) + 1,
        )
    raise UniquenessError(
        "no truncation strategy applies: the system is neither unique for the "
        "graph's degree bound nor universally unique"
    )


def _level_for(eps: float, alpha: float) -> int:
    if alpha <= 0.0:
        return 1
    return max(1, math.ceil(math.log(4.0 / eps) / math.log(1.0 / alpha)))


def estimate_marginal(
    g: Graph,
    s: SpinSystem,
    v: int,
    boundary: Boundary | None = None,
    eps: float = 1e-2,
    mode: str = "auto",
    budget: int | None = DEFAULT_BUDGET,
    _strategy: _Strategy | None = None,
) -> MarginalBounds:
    """Blue-marginal interval of width at most eps.

    The certified contraction turns eps into a starting level; the level then
    deepens by 2 until the measured width complies (an exactly evaluated tree
    stops immediately, whatever eps).  Raises UniquenessError when no decay
    regime covers the instance, and BudgetExceededError when the node budget
    runs out first.
    """
    require_antiferromagnetic(s)
    if not (eps > 0.0) or not math.isfinite(eps):
        raise InvalidParameterError(f"eps must be positive and finite, got {eps!r}")
    fixed, s_set = _boundary_parts(boundary)
    if s_set:
        raise InvalidParameterError(
            "estimate_marginal needs an empty differing set; width cannot "
            "shrink below the gap a differing set forces"
        )
    pinned = _pinned_root(g, v, fixed, s_set)
    if pinned is not None:
        return pinned

    strat = _strategy if _strategy is not None else _resolve_strategy(g, s, mode)
    level = min(_level_for(eps, strat.alpha), strat.level_cap)
    lam = _activities(g, s)
    while True:
        policy = Depth(level) if strat.mode == "depth" else MBased(strat.m_base, level)
        out = _walk(g, s, v, lam, fixed, s_set, policy, budget)
        if out.exact or out.width <= eps:
            return out
        if level >= strat.level_cap:
            raise SpinDecayError(
                f"width {out.width} still above eps={eps} at the level cap; "
                "this should be unreachable for a certified strategy"
            )
        level = min(level + 2, strat.level_cap)


@dataclass(frozen=True)
class PartitionEstimate:
    log_z: float
    rel_error_bound: float
    chosen_config: tuple[str, ...]
    per_vertex_p: tuple[tuple[int, float], ...]
    eps: float
    mode: str


def approx_partition(
    g: Graph,
    s: SpinSystem,
    eps: float,
    boundary: Boundary | None = None,
    order: list[int] | None = None,
    mode: str = "auto",
    budget: int | None = DEFAULT_BUDGET,
) -> PartitionEstimate:
    """Deterministic approximation of the (boundary-conditioned) partition sum.

    Vertices are fixed one at a time to their likelier spin under the current
    conditioning; each marginal is estimated to within eps/(4n), so each used
    probability is at least 1/3 and the accumulated relative error stays
    under eps.  The reported bound 3*n*eps' is deliberately conservative.
    """
    require_antiferromagnetic(s)
    if not (eps > 0.0) or not math.isfinite(eps):
        raise InvalidParameterError(f"eps must be positive and finite, got {eps!r}")
    fixed0, s_set = _boundary_parts(boundary)
    if s_set:
        raise InvalidParameterError("approx_partition needs an empty differing set")

    free = [v for v in range(g.n) if v not in fixed0]
    if order is None:
        elim = free
    else:
        elim = [v for v in order if v not in fixed0]
        if sorted(elim) != sorted(free):
            raise InvalidParameterError(
                "order must enumerate every free vertex exactly once"
            )
    n_free = len(elim)
    if n_free == 0:
        spins = tuple(fixed0[v] for v in range(g.n))
        lw = log_weight(g, s, spins)
        if lw == -_INF:
            raise SpinDecayError("boundary configuration has zero weight")
        return PartitionEstimate(
            log_z=lw, rel_error_bound=0.0, chosen_config=spins,
            per_vertex_p=(), eps=eps, mode="exact",
        )

    eps_v = min(eps / (4.0 * n_free), 1.0 / 12.0)
    strat = _resolve_strategy(g, s, mode)
    sigma = dict(fixed0)
    chosen_p: list[tuple[int, float]] = []
    for v in elim:
        est = estimate_marginal(
            g, s, v, Boundary(fixed=dict(sigma)), eps=eps_v,
            budget=budget, _strategy=strat,
        )
        mid = 0.5 * (est.p_lo + est.p_hi)
        if mid >= 0.5:
            sigma[v] = BLUE
            p = mid
        else:
            sigma[v] = GREEN
            p = 1.0 - mid
        if p <= 0.0:
            raise SpinDecayError(f"conditional probability degenerated at vertex {v}")
        chosen_p.append((v, p))

    spins = tuple(sigma[v] for v in range(g.n))
    lw = log_weight(g, s, spins)
    if lw == -_INF:
        raise SpinDecayError(
            "chosen configuration has zero weight; marginal estimates were inconsistent"
        )
    log_z = lw - sum(math.log(p) for _, p in chosen_p)
    return PartitionEstimate(
        log_z=log_z,
        rel_error_bound=3.0 * n_free * eps_v,
        chosen_config=spins,
        per_vertex_p=tuple(chosen_p),
        eps=eps,
        mode=strat.mode,
    )


@dataclass(frozen=True)
class DecayPoint:
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

    Each point is its own kernel walk, equal to bounds() at Depth(t), with
    the budget applying to each walk.  The curve costs t_max + 1 walks, about
    twice its deepest point on trees of branching 2.  Widths are nonincreasing.
    """
    require_antiferromagnetic(s)
    if t_max < 0:
        raise InvalidParameterError(f"t_max must be nonnegative, got {t_max}")
    fixed, s_set = _boundary_parts(boundary)
    pinned = _pinned_root(g, v, fixed, s_set)
    lam = _activities(g, s)
    out = []
    for t in range(t_max + 1):
        b = pinned if pinned is not None else _walk(
            g, s, v, lam, fixed, s_set, Depth(t), budget
        )
        out.append(DecayPoint(t=t, width=b.width, p_lo=b.p_lo, p_hi=b.p_hi))
    return out
