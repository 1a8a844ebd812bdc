"""Brute-force references: exact partition sums and marginals by enumeration.

Everything here is deliberately independent of the walk-tree machinery so the
two can check each other.  Configurations are enumerated as bitmasks over the
free vertices (bit set = blue), with edge counts read off neighbour masks and
the weights accumulated in log scale against the running maximum, so large
activities and large graphs within the cap stay finite.

The enumeration cap is a hard guard: 2^k configurations get slow well before
they get wrong, and callers who really want a bigger run can raise it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BLUE, GREEN, SpinSystem
from .errors import (
    EnumerationCapError,
    InvalidParameterError,
    ZeroWeightError,
)
from .graphs import Boundary, Graph

ENUMERATION_CAP = 25


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


@dataclass(frozen=True)
class ExactResult:
    log_z: float
    n_free: int
    terms: int

    @property
    def z(self) -> float:
        try:
            return math.exp(self.log_z)
        except OverflowError:
            return math.inf


def exact_partition(
    g: Graph,
    s: SpinSystem,
    boundary: Boundary | None = None,
    cap: int = ENUMERATION_CAP,
) -> ExactResult:
    """Sum the weights of all configurations extending the boundary.

    Raises ZeroWeightError when every term vanishes (the log has nowhere to
    live) and EnumerationCapError when more than 2^cap terms would be needed.
    """
    fixed = dict(boundary.fixed) if boundary is not None else {}
    if boundary is not None and boundary.S:
        raise InvalidParameterError("exact_partition needs an empty differing set")
    for v in fixed:
        if not (0 <= v < g.n):
            raise InvalidParameterError(f"fixed vertex {v} outside 0..{g.n - 1}")

    free = [v for v in range(g.n) if v not in fixed]
    k = len(free)
    if k > cap:
        raise EnumerationCapError(
            f"{k} free vertices would need 2^{k} terms (cap is 2^{cap})"
        )
    pos = {v: i for i, v in enumerate(free)}

    beta, gamma = s.beta, s.gamma
    log_beta = math.log(beta) if beta > 0.0 else None
    log_gamma = math.log(gamma) if gamma > 0.0 else None

    # constant part: fixed activities and fixed-fixed edges
    const = 0.0
    const_zero = False
    for v, spin in fixed.items():
        if spin == BLUE:
            const += math.log(g.activity(v, s))
    ff_edges = 0
    nbr = [0] * k
    fixed_blue = [0] * k
    fixed_green = [0] * k
    for u, v in g.edges():
        fu, fv = u in fixed, v in fixed
        if fu and fv:
            if fixed[u] == fixed[v]:
                coupling = beta if fixed[u] == BLUE else gamma
                if coupling == 0.0:
                    const_zero = True
                else:
                    const += math.log(coupling)
        elif fu or fv:
            w_free, w_fix = (v, u) if fu else (u, v)
            i = pos[w_free]
            if fixed[w_fix] == BLUE:
                fixed_blue[i] += 1
            else:
                fixed_green[i] += 1
        else:
            i, j = pos[u], pos[v]
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
            ff_edges += 1
    if const_zero:
        raise ZeroWeightError("a fixed-fixed edge forces every weight to zero")

    # per-vertex log contributions for the two spins
    when_blue = [0.0] * k
    when_green = [0.0] * k
    bad_blue = 0  # bits whose blue assignment hits a zero coupling
    bad_green = 0
    for i, v in enumerate(free):
        lb = math.log(g.activity(v, s))
        if fixed_blue[i]:
            if log_beta is None:
                bad_blue |= 1 << i
            else:
                lb += fixed_blue[i] * log_beta
        when_blue[i] = lb
        lg = 0.0
        if fixed_green[i]:
            if log_gamma is None:
                bad_green |= 1 << i
            else:
                lg += fixed_green[i] * log_gamma
        when_green[i] = lg

    sum_green = sum(when_green)
    full = (1 << k) - 1

    log_terms: list[float] = []
    best = -math.inf
    for mask in range(1 << k):
        if mask & bad_blue or (~mask) & bad_green & full:
            continue
        acc = const + sum_green
        bb2 = 0
        cross = 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            acc += when_blue[i] - when_green[i]
            masked = nbr[i]
            bb2 += (masked & mask).bit_count()
            cross += (masked & ~mask & full).bit_count()
        bb = bb2 // 2
        gg = ff_edges - bb - cross
        if bb:
            if log_beta is None:
                continue
            acc += bb * log_beta
        if gg:
            if log_gamma is None:
                continue
            acc += gg * log_gamma
        log_terms.append(acc)
        if acc > best:
            best = acc

    if not log_terms or best == -math.inf:
        raise ZeroWeightError("every configuration extending the boundary has zero weight")

    # scaled Kahan sum against the running maximum
    total = 0.0
    carry = 0.0
    for lw in log_terms:
        term = math.exp(lw - best)
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return ExactResult(log_z=best + math.log(total), n_free=k, terms=len(log_terms))


@dataclass(frozen=True)
class ExactMarginal:
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
    """Exact blue probability of v by conditioning both ways.

    Working from the two conditioned log sums keeps the ratio stable even
    when one side dwarfs the other.
    """
    if not (0 <= v < g.n):
        raise InvalidParameterError(f"vertex {v} outside 0..{g.n - 1}")
    fixed = dict(boundary.fixed) if boundary is not None else {}
    if boundary is not None and boundary.S:
        raise InvalidParameterError("exact_marginal needs an empty differing set")
    if v in fixed:
        p = 1.0 if fixed[v] == BLUE else 0.0
        lz = exact_partition(g, s, boundary, cap=cap).log_z
        return ExactMarginal(
            p=p, ratio=math.inf if p == 1.0 else 0.0,
            log_z_blue=lz if p == 1.0 else -math.inf,
            log_z_green=lz if p == 0.0 else -math.inf,
        )

    def conditioned(spin: str) -> float:
        b = Boundary(fixed={**fixed, v: spin})
        try:
            return exact_partition(g, s, b, cap=cap).log_z
        except ZeroWeightError:
            return -math.inf

    lzb = conditioned(BLUE)
    lzg = conditioned(GREEN)
    if lzb == -math.inf and lzg == -math.inf:
        raise ZeroWeightError("both conditionings of the marginal vanish")
    if lzg == -math.inf:
        return ExactMarginal(p=1.0, ratio=math.inf, log_z_blue=lzb, log_z_green=lzg)
    if lzb == -math.inf:
        return ExactMarginal(p=0.0, ratio=0.0, log_z_blue=lzb, log_z_green=lzg)
    # p = 1 / (1 + Zg/Zb), evaluated through the log difference
    diff = lzg - lzb
    p = 1.0 / (1.0 + math.exp(diff)) if diff < 700.0 else math.exp(-diff)
    ratio = math.exp(-diff) if -diff < 700.0 else math.inf
    return ExactMarginal(p=p, ratio=ratio, log_z_blue=lzb, log_z_green=lzg)

