"""Fixed points, uniqueness certificates, thresholds and contraction constants.

For an anti-ferromagnetic system the d-ary symmetric recursion
f_d(x) = lam * ((beta*x + 1)/(x + gamma))**d is strictly decreasing, so it has
exactly one positive fixed point x_hat_d.  The system is "unique up to Delta"
when |f_d'(x_hat_d)| < 1 for every arity 1 <= d < Delta, and universally
unique when that holds for every d.  Everything else here builds on that
predicate: closed-form threshold activities where they exist, a bisected
gamma threshold, the contraction constant alpha that drives truncation depths,
the degree-scaled truncation base M for unbounded-degree graphs, and a system
whose uniqueness is not monotone in the arity.

Bounded and unbounded Delta are checked by the same forward scan over the
arities.  The absolute bound x_hat_d <= lam / gamma**d (gamma > 1) gives
|f_d'(x_hat_d)| <= d*lam/gamma**d; the scan stops at delta, at the first
violation, or where that envelope is decreasing and below 1, which certifies
all larger arities at once.  contraction_bound scans the same way against
the square root of that envelope over gamma.  One doubling-then-bisection
search, _first_arity, finds every arity of the thresholds and of the
non-monotone witness: the first admissible arity, the first minimiser of a
log-convex critical activity (hardcore included, the beta = 0 unit root) and
the first unique arity past it.  gamma_threshold is one bisection over gamma
between a non-unique and a unique end.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .core import (
    SpinSystem,
    alpha_sym,
    ceil_log,
    fixed_point_derivative,
    guarded_exp,
    require_antiferromagnetic,
    symmetric_f,
)
from .errors import (
    InvalidParameterError,
    NoThresholdError,
    SpinDecayError,
    UniquenessError,
)

_BISECT_RTOL = 1e-13
_BISECT_MAXIT = 200


def _bisect_decreasing(g, lo: float, hi: float) -> float:
    """Root of a strictly decreasing g with g(lo) >= 0 >= g(hi).

    The midpoint halves each end before adding them, so ends near the
    largest float do not overflow; halving is exact, so it equals
    0.5 * (lo + hi) wherever that does not overflow.
    """
    for _ in range(_BISECT_MAXIT):
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= _BISECT_RTOL * (1.0 + abs(mid)):
            return mid
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


# ---------------------------------------------------------------------------
# fixed points


class FixedPointResult(NamedTuple):
    d: int
    x_hat: float
    derivative_abs: float
    residual: float


# The three certificate memos are bounded so that a long-lived caller stays
# at constant memory.  One universally unique system with its gamma and
# activity thresholds solves about 750 distinct fixed points over some 40
# uniqueness checks, all of which fit.
@lru_cache(maxsize=2048)
def fixed_point(s: SpinSystem, d: int) -> FixedPointResult:
    """The unique positive fixed point of the d-ary symmetric recursion.

    Bisection on g(x) = f_d(x) - x, which is strictly decreasing with
    g(0) = f_d(0) > 0; the upper bracket end grows fourfold until g goes
    negative, so it is at most four times the fixed point, and stops at the
    largest float, where f_d is about lam * beta**d < lam and so g < 0.
    """
    require_antiferromagnetic(s)
    if d < 1 or d != int(d):
        raise InvalidParameterError(f"arity d must be a positive integer, got {d!r}")

    def g(x: float) -> float:
        return symmetric_f(s, d, x) - x

    hi = 1.0
    while g(hi) > 0.0:
        hi = min(4.0 * hi, sys.float_info.max)
    x_hat = _bisect_decreasing(g, 0.0, hi)
    return FixedPointResult(
        d=d,
        x_hat=x_hat,
        derivative_abs=fixed_point_derivative(s, d, x_hat),
        residual=abs(g(x_hat)),
    )


# ---------------------------------------------------------------------------
# uniqueness certificates


class UniquenessResult(NamedTuple):
    """Outcome of is_unique_up_to, truthy iff unique.

    checked counts the arities 1, 2, ... solved explicitly: tail_start - 1
    or delta - 1 when unique, the violating arity if not, 0 for gamma <= 1
    at delta = inf.  When the scan stopped short of delta (finite or not),
    tail_start is the arity from which d*lam/gamma**d < 1 certifies the rest
    (the envelope is decreasing there), and tail_bound is its value at
    tail_start.  violating records the first failing arity, when any.
    """

    unique: bool
    delta: float
    checked: int
    tail_start: int | None = None
    tail_bound: float | None = None
    violating: FixedPointResult | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.unique


def _validate_delta(delta) -> float:
    if delta == math.inf:
        return math.inf
    if isinstance(delta, bool) or delta != int(delta):
        raise InvalidParameterError(f"delta must be an integer >= 2 or inf, got {delta!r}")
    delta = int(delta)
    if delta < 2:
        raise InvalidParameterError(f"delta must be at least 2, got {delta}")
    return delta


def _envelope(s: SpinSystem, d: int) -> float:
    # d*lam/gamma**d, lam times the power first: d*lam may overflow where
    # the power underflows, and inf*0 is NaN, which no comparison ends on
    return d * (s.lam * math.exp(-d * math.log(s.gamma)))


def _envelope_start(s: SpinSystem) -> float:
    # consecutive envelope values have ratio (d+1)/(d*gamma), so it
    # decreases from this arity on
    return math.floor(1.0 / (s.gamma - 1.0)) + 1 if s.gamma > 1.0 else math.inf


def _first_arity(holds, lo: int, top: float = math.inf) -> int | None:
    """Least d in [lo, top) with holds(d), or None; lo >= 1.

    holds must stay true once it turns true.  Probing lo, 2*lo, 4*lo, ...
    (the last probe clamped to top - 1) brackets the switch, and a bisection
    finds it, so the cost is logarithmic in the answer even for top = inf,
    where the predicate must eventually hold.
    """
    if lo >= top:
        return None
    hi = lo
    while not holds(hi):
        if hi == top - 1:
            return None
        lo, hi = hi, min(2 * hi, top - 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=256)
def is_unique_up_to(s: SpinSystem, delta) -> UniquenessResult:
    """Whether |f_d'(x_hat_d)| < 1 for every 1 <= d < delta (delta may be inf).

    The comparison is strict: a derivative exactly at 1 is reported as not
    unique.  For delta = inf a gamma <= 1 system is never universally unique,
    so the answer is False without a finite witness.
    """
    require_antiferromagnetic(s)
    delta = _validate_delta(delta)
    if delta == math.inf and s.gamma <= 1.0:
        return UniquenessResult(unique=False, delta=delta, checked=0,
                                reason="gamma <= 1 admits no universal uniqueness")

    # The envelope bounds |f_d'(x_hat_d)|, so the first arity d past its
    # start where it is below 1 certifies every arity from d on; for
    # delta = inf, gamma > 1 here and the envelope tends to 0.
    lo = _envelope_start(s)
    d = 1
    while d < delta:
        if d >= lo:
            env = _envelope(s, d)
            if env < 1.0:
                return UniquenessResult(unique=True, delta=delta, checked=d - 1,
                                        tail_start=d, tail_bound=env)
        fp = fixed_point(s, d)
        if fp.derivative_abs >= 1.0:
            return UniquenessResult(
                unique=False,
                delta=delta,
                checked=d,
                violating=fp,
                reason=f"derivative {fp.derivative_abs:.6g} >= 1 at arity {d}",
            )
        d += 1
    return UniquenessResult(unique=True, delta=delta, checked=d - 1)


# ---------------------------------------------------------------------------
# contraction


class ContractionBound(NamedTuple):
    """alpha < 1 dominating the amortised one-step contraction at any arity < delta.

    The arities 1 ... tail_start - 1 are maximised explicitly, or
    1 ... delta - 1 when there is no tail.  A tail (finite or infinite
    delta, possible only for gamma > 1) covers the arities from tail_start
    on by the decreasing bound sqrt(d*lam/gamma**(d+1)), whose value at
    tail_start is tail_bound and never exceeds alpha.
    """

    alpha: float
    delta: float
    tail_start: int | None = None
    tail_bound: float | None = None


def _alpha_max_point(s: SpinSystem, d: int) -> float:
    """Location of the maximum of alpha_sym(s, d, .) on (0, inf).

    Root of the balance condition

        (gamma - beta*x^2) / (d*(1-beta*gamma)*x)
            = (gamma - beta*f^2) / ((beta*f + 1)*(f + gamma)),   f = f_d(x),

    whose left side strictly decreases and right side strictly increases, so
    the crossing is unique and bisection applies.
    """
    b, g = s.beta, s.gamma
    coef = d * (1.0 - b * g)

    def h(x: float) -> float:
        f = symmetric_f(s, d, x)
        lhs = (g - b * x * x) / (coef * x)
        rhs = (g - b * f * f) / ((b * f + 1.0) * (f + g))
        return lhs - rhs

    lo = 1e-8
    while h(lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise SpinDecayError("maximiser bracket failed at the lower end")
    hi = max(1.0, 2.0 * lo)
    while h(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise SpinDecayError("maximiser bracket failed at the upper end")
    return _bisect_decreasing(h, lo, hi)


def _contraction_alpha(s: SpinSystem, fp: FixedPointResult) -> float:
    """The maximum of alpha_sym(s, d, .), reported as at most
    sqrt(|f_d'(x_hat_d)|), the bound it obeys in exact arithmetic.

    A computed maximum more than 1e-9 above that bound is a numerical
    inconsistency.  Within it, a tie follows the computed derivative: every
    arity that is_unique_up_to passes (derivative < 1) gets alpha_d < 1.
    """
    d = fp.d
    a_d = alpha_sym(s, d, _alpha_max_point(s, d))
    sqrt_deriv = math.sqrt(fp.derivative_abs)
    if a_d > sqrt_deriv + 1e-9:
        raise SpinDecayError(
            f"contraction maximum {a_d!r} exceeds sqrt of fixed-point "
            f"derivative {sqrt_deriv!r} at arity {d}; numerical inconsistency"
        )
    return min(a_d, sqrt_deriv)


def _log_envelope(s: SpinSystem, d: int) -> float:
    """log of d*sqrt(lam/gamma**(d+1)), the arity-d bound that choose_M
    certifies against, sqrt(d) times the one contraction_bound's tail uses."""
    return math.log(d) + 0.5 * (math.log(s.lam) - (d + 1) * math.log(s.gamma))


@lru_cache(maxsize=64)
def contraction_bound(s: SpinSystem, delta) -> ContractionBound:
    """The decay rate certified for all arities below delta.

    Each arity's alpha_sym is maximised exactly (the maximum never exceeds
    sqrt(|f_d'(x_hat_d)|), which uniqueness keeps below 1), and asymmetric
    child vectors are dominated by the symmetric maximum.  The arities are
    maximised in order up to delta - 1, or until sqrt(d*lam/gamma**(d+1)),
    which x_hat_d <= lam/gamma**d makes a bound on sqrt(|f_d'(x_hat_d)|), is
    decreasing and its next value is at most the running maximum; for
    gamma > 1 it tends to 0, so the scan ends.  The uniqueness check runs
    first, so a system that is not unique raises before any maximisation;
    each arity's fixed point then comes from the fixed_point memo.
    """
    require_antiferromagnetic(s)
    delta = _validate_delta(delta)
    uni = is_unique_up_to(s, delta)
    if not uni:
        d_bad = uni.violating.d if uni.violating is not None else None
        raise UniquenessError(
            f"system (beta={s.beta}, gamma={s.gamma}, lam={s.lam}) is not unique "
            f"up to delta={delta}: {uni.reason}",
            violating_d=d_bad,
        )

    # compared without logarithms, so a maximum that underflows to 0 ends
    # the scan too
    lo = _envelope_start(s)
    alpha = _contraction_alpha(s, fixed_point(s, 1))
    tail_start = tail_bound = None
    d = 1
    while d + 1 < delta:
        if d >= lo:
            nxt = math.sqrt(_envelope(s, d + 1) / s.gamma)
            if nxt <= alpha:
                tail_start, tail_bound = d + 1, nxt
                break
        d += 1
        alpha = max(alpha, _contraction_alpha(s, fixed_point(s, d)))

    if not alpha < 1.0:
        raise UniquenessError(
            f"contraction constant {alpha} fails to certify decay (alpha >= 1)"
        )
    return ContractionBound(alpha=alpha, delta=delta, tail_start=tail_start,
                            tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# thresholds


class _ThresholdReport(NamedTuple):
    kind: str  # hardcore_lambda | soft_lambda_pair | gamma_c | universal_lambda
    values: tuple[float, ...]
    delta: float
    witness_d: int | None
    all_lambda_unique: bool
    extras: dict


class ThresholdReport(_ThresholdReport):
    """Uniform result record for the threshold family of operations; extras
    is a fresh dict when not given."""

    __slots__ = ()

    def __new__(cls, kind: str, values: tuple[float, ...], delta: float,
                witness_d: int | None = None, all_lambda_unique: bool = False,
                extras: dict | None = None):
        return super().__new__(cls, kind, values, delta, witness_d, all_lambda_unique,
                               {} if extras is None else extras)


def _least_critical(lam, start: int, delta) -> int:
    """The first minimiser of lam(d) over start <= d < delta: the first d
    whose successor is no smaller, or delta - 1 when there is none.

    The search is exact because log lam(d) is convex in d, so "the successor
    is no smaller" stays true once it turns true.  For lam_low(d) =
    x*((x+g)/(b*x+1))**d at the smaller unit-derivative root x = x_low(d)
    (b = beta >= 0, g = gamma), d/dx log lam is 2/x at the root and
    x'(d) = -(1-b*g)*x**2/(g-b*x**2), so
        d/dd log lam_low = log((x+g)/(b*x+1)) - 2(1-b*g)*x/(g-b*x**2).
    Its derivative in x, (1-b*g)*[1/((x+g)(b*x+1)) - 2(g+b*x**2)/(g-b*x**2)**2],
    is negative on (0, sqrt(g/b)), all of (0, inf) at b = 0, as
    2(g+b*x**2)(x+g)(b*x+1) >= 2*g**2 > (g-b*x**2)**2; x_low lies there and
    falls as d grows, so the slope rises.
    Swapping the spins maps the roots to their reciprocals, so
    lam_high(b, g, d) = 1/lam_low(g, b, d) is log-concave and -lam_high
    qualifies too.
    """
    d = _first_arity(lambda d: lam(d + 1) >= lam(d), start, delta - 1)
    return delta - 1 if d is None else d


def hardcore_threshold(gamma: float, delta) -> ThresholdReport:
    """Critical activity for beta = 0: min over 1 < d < delta of lam_low(d),
    which is gamma**(d+1) * d**d / (d-1)**(d+1) there.

    Activities strictly below the returned value are unique up to delta.
    For gamma <= 1 the minimiser is d = delta - 1, so delta = inf has no
    positive threshold there and raises.
    """
    if not (gamma > 0) or not math.isfinite(gamma):
        raise InvalidParameterError(f"gamma must be positive and finite, got {gamma!r}")
    delta = _validate_delta(delta)
    if delta < 3:
        raise InvalidParameterError(f"hardcore threshold needs delta >= 3, got {delta}")
    if delta == math.inf and gamma <= 1.0:
        raise NoThresholdError(
            "no universal hardcore threshold exists for gamma <= 1 "
            "(the candidate terms decrease to zero)"
        )

    def lam_low(d: int) -> float:
        return derivative_unit_roots(0.0, gamma, d).lam_low

    d = _least_critical(lam_low, 2, delta)
    return ThresholdReport(kind="hardcore_lambda", values=(lam_low(d),), delta=delta, witness_d=d)


class DerivativeUnitRoots(NamedTuple):
    """The two positive x with d*(1-beta*gamma)*x = (beta*x+1)*(x+gamma),
    plus the activities that place the fixed point at each root.

    Exists iff (d-1) >= sqrt(beta*gamma)*(d+1); at equality the roots
    coincide.  x_low*x_high = gamma/beta;
    activities between lam_low and lam_high are exactly the non-unique ones
    at arity d.  For beta = 0, x_low = gamma/(d-1) and x_high = lam_high = inf.
    """

    d: int
    x_low: float
    x_high: float
    lam_low: float
    lam_high: float


def _activity_at(beta: float, gamma: float, d: int, x: float) -> float:
    # lam with f_d fixed point at x: lam = x * ((x + gamma)/(beta*x + 1))**d,
    # which grows with x from 0 to inf; a root out of float range saturates
    if x == 0.0 or x == math.inf:
        return x
    return guarded_exp(math.log(x) + d * (math.log(x + gamma) - math.log(beta * x + 1.0)))


def _admissible_start(beta: float, gamma: float) -> int:
    """Smallest arity d >= 2 with (d-1) >= sqrt(beta*gamma)*(d+1), the
    admissible arities: exactly those where the unit-derivative roots exist."""
    r = math.sqrt(beta * gamma)
    return _first_arity(lambda d: d - 1 >= r * (d + 1), 2)


def _require_soft(name: str, beta: float, gamma: float) -> None:
    if not beta > 0:
        raise InvalidParameterError(f"{name} requires beta > 0 (use hardcore_threshold)")
    if not gamma > 0 or not beta * gamma < 1:
        raise InvalidParameterError(f"{name} requires gamma > 0 and beta*gamma < 1")


def derivative_unit_roots(beta: float, gamma: float, d: int) -> DerivativeUnitRoots:
    if not (beta >= 0.0 and gamma > 0.0 and beta * gamma < 1.0):
        raise InvalidParameterError(
            "derivative_unit_roots requires beta >= 0, gamma > 0 and beta*gamma < 1")
    if d < 2:
        raise InvalidParameterError(f"arity must be at least 2, got {d}")
    start = _admissible_start(beta, gamma)
    if d < start:
        raise InvalidParameterError(
            f"arity {d} is below the admissible range: sqrt(beta*gamma) "
            f"<= (d-1)/(d+1) first holds at d = {start}"
        )
    bg = beta * gamma
    a = d * (1.0 - bg) - (1.0 + bg)
    disc = a * a - 4.0 * bg
    if disc <= 0.0:  # a touching arity, whose discriminant may round below 0
        x_low = x_high = math.sqrt(gamma / beta)  # its double root
    else:
        # The roots solve beta*x**2 - a*x + gamma = 0.  The larger one is safe
        # to form directly; the smaller comes from x_low*x_high = gamma/beta,
        # dodging the cancellation of (a - sqrt(disc))/(2*beta), and without
        # x_high where that overflows or, at beta = 0, does not exist.
        q = a + math.sqrt(disc)
        x_high = q / beta / 2.0 if beta > 0.0 else math.inf
        x_low = gamma / (beta * x_high) if x_high < math.inf else 2.0 * gamma / q
    return DerivativeUnitRoots(
        d=d,
        x_low=x_low,
        x_high=x_high,
        lam_low=_activity_at(beta, gamma, d, x_low),
        lam_high=_activity_at(beta, gamma, d, x_high),
    )


def soft_thresholds(beta: float, gamma: float, delta) -> ThresholdReport:
    """The two-sided activity thresholds for beta > 0 and finite delta.

    When no arity below delta is admissible every activity is unique up to
    delta and the report says so.  Otherwise uniqueness up to delta holds
    exactly for activities in (0, lam_c) or (lam_bar_c, inf) where
    lam_c = min lam_low(d) and lam_bar_c = max lam_high(d) over admissible
    arities d < delta, each at its first minimiser (_least_critical).
    """
    _require_soft("soft_thresholds", beta, gamma)
    delta = _validate_delta(delta)
    if delta == math.inf or delta < 3:
        raise InvalidParameterError("soft_thresholds needs a finite delta >= 3")

    start = _admissible_start(beta, gamma)
    if start >= delta:
        return ThresholdReport(
            kind="soft_lambda_pair", values=(), delta=delta, all_lambda_unique=True
        )

    def roots(d: int) -> DerivativeUnitRoots:
        return derivative_unit_roots(beta, gamma, d)

    lo_d = _least_critical(lambda d: roots(d).lam_low, start, delta)
    hi_d = _least_critical(lambda d: -roots(d).lam_high, start, delta)
    return ThresholdReport(
        kind="soft_lambda_pair",
        values=(roots(lo_d).lam_low, roots(hi_d).lam_high),
        delta=delta,
        witness_d=lo_d,
        extras={"witness_d_high": hi_d},
    )


def gamma_threshold(beta: float, lam: float, delta) -> ThresholdReport:
    """The gamma above which (beta, gamma, lam) is unique up to delta.

    Uniqueness is monotone in gamma on the anti-ferromagnetic range, so the
    critical gamma is one bisection against is_unique_up_to between a lower
    end lo that is not unique and an upper end hi that is.  For beta > 0 the
    range is (beta, 1/beta); 1/beta is never probed, as 1 - beta*gamma tends
    to 0 there and the system is unique in the limit.  For beta = 0, hi
    doubles from 1 until unique and lo is the floor 1e-12, below which a
    fixed point has no correct digits.  When lo is unique, every gamma is,
    and the report says so with the value beta.  The unbounded check already
    reduces itself to finitely many arities, which makes delta = inf no
    different from a finite delta here.
    """
    if not 0.0 <= beta < 1.0:
        raise InvalidParameterError(f"beta must lie in [0, 1), got {beta!r}")
    if lam <= 0 or not math.isfinite(lam):
        raise InvalidParameterError(f"lam must be positive and finite, got {lam!r}")
    delta = _validate_delta(delta)

    def unique_at(g: float) -> bool:
        return bool(is_unique_up_to(SpinSystem(beta, g, lam), delta))

    if beta > 0.0:
        # 1/beta overflows for a subnormal beta; the float range holds hi then
        lo, hi = beta, min(1.0 / beta, sys.float_info.max)
    else:
        lo, hi = 1e-12, 1.0
        while not unique_at(hi):
            hi *= 2.0
            if hi == math.inf:
                raise NoThresholdError("no gamma with uniqueness found for these parameters")
    if unique_at(lo):
        return ThresholdReport(kind="gamma_c", values=(beta,), delta=delta,
                               extras={"all_gamma_unique": True})
    while hi - lo > 1e-10 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if unique_at(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdReport(kind="gamma_c", values=(0.5 * (lo + hi),), delta=delta)


def universal_lambda_threshold(beta: float, gamma: float) -> ThresholdReport:
    """min over admissible d of lam_low(d), for beta > 0 and gamma > 1.

    Activities below the returned value are universally unique.  gamma > 1
    makes lam_low(d) grow without bound, so its first minimiser exists.
    """
    _require_soft("universal_lambda_threshold", beta, gamma)
    if gamma <= 1:
        raise NoThresholdError("universal activity threshold requires gamma > 1")

    def lam_low(d: int) -> float:
        return derivative_unit_roots(beta, gamma, d).lam_low

    d = _least_critical(lam_low, _admissible_start(beta, gamma), math.inf)
    return ThresholdReport(
        kind="universal_lambda", values=(lam_low(d),), delta=math.inf, witness_d=d
    )


# ---------------------------------------------------------------------------
# truncation base for unbounded degree


def _verify_truncation_base(s: SpinSystem, alpha: float, m: float) -> bool:
    """Check d*sqrt(lam/gamma**(d+1)) <= alpha**ceil_log(m, d+1) for every
    arity d charged two or more levels, i.e. every d with d + 1 > m; smaller
    arities are covered by alpha itself."""
    ln_a = math.log(alpha)
    ln_m = math.log(m)
    ln_g = math.log(s.gamma)
    # smallest arity charged two or more levels: the least d with d + 1 > m
    first = max(1, math.floor(m - 1.0) + 1)

    # Arity beyond which the relaxed requirement H(d) is decreasing:
    # 1/d + |ln alpha| / ((d+1) ln m) <= (ln gamma)/2.
    d_h = first
    while 1.0 / d_h + (-ln_a) / ((d_h + 1) * ln_m) > 0.5 * ln_g:
        d_h *= 2
        if d_h > 10**9:
            return False

    top = max(math.ceil(10.0 * m), d_h + 1)
    for d in range(first, top + 1):
        if _log_envelope(s, d) > ceil_log(m, d + 1) * ln_a:
            return False
    # Relaxed tail value at top+1; the relaxation replaces the ceiling with
    # log_m(d+1) + 1 >= ceil, which only weakens the right-hand side.
    d = top + 1
    relaxed = (math.log(d + 1) / ln_m + 1.0) * ln_a
    return _log_envelope(s, d) <= relaxed


# choose_M's candidate bases, in the order it tries them
_M_GRID = (*(k / 10 for k in range(11, 200)), *map(float, range(20, 200)),
           *(200.0 * 2**k for k in range(9)))


def choose_M(s: SpinSystem, alpha: float) -> float:
    """Smallest grid value M > 1 making per-level contraction
    alpha**ceil_log(M, d+1) dominate every arity d >= M.

    Together with the explicit maxima below M (already inside alpha) this
    certifies the degree-scaled truncation: each level of the walk tree costs
    at least ceil_log(M, d+1) units of decay.  The grid steps by 0.1 up to
    20, by 1 up to 200, then doubles.
    """
    require_antiferromagnetic(s)
    if s.gamma <= 1:
        raise InvalidParameterError("truncation base search requires gamma > 1")
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")

    for m in _M_GRID:
        if _verify_truncation_base(s, alpha, m):
            return m
    raise NoThresholdError(
        f"no truncation base up to 65536 certified for alpha={alpha}; "
        "the contraction is too weak for degree-scaled truncation"
    )


# ---------------------------------------------------------------------------
# non-monotonicity in the arity


class NonMonotoneWitness(NamedTuple):
    system: SpinSystem
    non_unique_d: int
    unique_d: int


def find_non_monotone_witness() -> NonMonotoneWitness:
    """A system unique at some arity strictly above a non-unique one.

    (beta, gamma) = (0.05, 1.1) with lam 1% above its universal threshold
    lam_c = lam_low(d_c), d_c the threshold's witness arity: the system is
    not unique at d_c, as lam_low(d_c) < lam < lam_high(d_c), yet it is unique
    at every large arity, since lam_low is log-convex and unbounded
    (_least_critical).  Past d_c, lam_low rises, so uniqueness stays once it
    holds and _first_arity finds the first unique arity above d_c.  Both
    arities are checked against their fixed points.
    """
    beta, gamma = 0.05, 1.1
    rep = universal_lambda_threshold(beta, gamma)
    s = SpinSystem(beta, gamma, 1.01 * rep.values[0])
    bad = rep.witness_d
    good = _first_arity(lambda d: fixed_point(s, d).derivative_abs < 1.0, bad + 1)
    if not fixed_point(s, bad).derivative_abs >= 1.0 > fixed_point(s, good).derivative_abs:
        raise SpinDecayError(f"arities {bad} and {good} of {s} are no non-monotone witness")
    return NonMonotoneWitness(system=s, non_unique_d=bad, unique_d=good)
