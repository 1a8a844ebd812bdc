"""Parameter triples and the tree recursion for two-state spin systems.

A system is described by an edge matrix [[beta, 1], [1, gamma]] and vertex
activity vector (lam, 1): a configuration assigns each vertex "blue" (weight
lam) or "green" (weight 1), every blue-blue edge contributes beta and every
green-green edge contributes gamma.  The system is anti-ferromagnetic when
0 <= beta <= gamma, gamma > 0 and beta * gamma < 1.

On a tree the blue/green ratio at the root satisfies

    R = lam * prod_i (beta * R_i + 1) / (R_i + gamma)

over the child ratios R_i.  Ratios live on [0, +inf]; +inf means the vertex
is forced blue, and the per-child factor degenerates to exactly beta there.
This module holds the per-child factor, the d-ary symmetric specialisation
f_d of the recursion, the derivative of f_d at its fixed point and the
contraction rate `alpha_sym` at d equal children: what the paper's
uniqueness and decay certificates are built from.  The walk kernel
(`saw`) evaluates the recursion itself on general trees.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import InvalidParameterError

BLUE = "blue"
GREEN = "green"

ANTIFERROMAGNETIC = "anti-ferromagnetic"
FERROMAGNETIC = "ferromagnetic"
DEGENERATE = "degenerate"

# Past this many children (or fewer, `linear_children`) products run in log space.
LOG_PRODUCT_CUTOFF = 32

# Defaults of the estimator's walk-tree node budget and of the exact oracle's
# elimination cap.  They live here, beside the records every command imports,
# so that the CLI's parser can show them without importing those modules.
DEFAULT_BUDGET = 5_000_000
ENUMERATION_CAP = 25


class SpinSystem:
    """A (beta, gamma, lam) triple with beta, gamma >= 0 and lam > 0.

    beta > gamma is allowed: it is the same system with the two spin labels
    swapped, which classify() reports.  The estimator's entry points accept
    it and answer in the caller's labels; the anti-ferromagnetic predicate
    itself requires beta <= gamma.

    An immutable value: equal triples are equal and hash alike, and it
    pickles.  It is a slotted class rather than a record tuple because the
    certificates read its fields in their inner loops
    (`uniqueness._log_envelope`), where a slot is read about twice as fast
    as a tuple field.
    """

    __slots__ = ("beta", "gamma", "lam")

    def __init__(self, beta: float, gamma: float, lam: float):
        for name, v in (("beta", beta), ("gamma", gamma), ("lam", lam)):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise InvalidParameterError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise InvalidParameterError(f"{name} must be finite, got {v!r}")
        if beta < 0 or gamma < 0:
            raise InvalidParameterError(
                f"edge weights must be nonnegative, got beta={beta}, gamma={gamma}"
            )
        if lam <= 0:
            raise InvalidParameterError(f"vertex activity must be positive, got lam={lam}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.beta, self.gamma, self.lam) == (other.beta, other.gamma, other.lam)

    def __hash__(self):
        return hash((self.beta, self.gamma, self.lam))

    def __repr__(self):
        return (f"{type(self).__qualname__}(beta={self.beta!r}, gamma={self.gamma!r}, "
                f"lam={self.lam!r})")

    def __reduce__(self):
        return type(self), (self.beta, self.gamma, self.lam)

    @property
    def is_antiferromagnetic(self) -> bool:
        return 0 <= self.beta <= self.gamma and self.gamma > 0 and self.beta * self.gamma < 1

    def with_field(self, lam: float) -> "SpinSystem":
        """Same edge weights, different vertex activity."""
        return SpinSystem(self.beta, self.gamma, lam)


class Classification(NamedTuple):
    kind: str
    swapped: bool
    system: SpinSystem  # normalised so beta <= gamma


def swap_spins(s: SpinSystem) -> SpinSystem:
    """Relabel blue <-> green: (beta, gamma, lam) -> (gamma, beta, 1/lam).

    The relabelling rescales every configuration weight by lam**-n on an
    n-vertex graph, so log partition values translate back by adding the sum
    of the original per-vertex log activities; marginals map to p -> 1 - p.
    """
    return SpinSystem(s.gamma, s.beta, 1.0 / s.lam)


def classify(s: SpinSystem) -> Classification:
    """Classify as anti-ferromagnetic / ferromagnetic / degenerate.

    The spin labels are swapped first when beta > gamma so that the standard
    orientation beta <= gamma holds; `swapped` records whether that happened.
    """
    swapped = s.beta > s.gamma
    t = swap_spins(s) if swapped else s
    if t.gamma == 0 or t.beta * t.gamma == 1:
        kind = DEGENERATE
    elif t.beta * t.gamma > 1:
        kind = FERROMAGNETIC
    else:
        kind = ANTIFERROMAGNETIC
    return Classification(kind=kind, swapped=swapped, system=t)


def require_antiferromagnetic(s: SpinSystem) -> None:
    if not s.is_antiferromagnetic:
        raise InvalidParameterError(
            f"system (beta={s.beta}, gamma={s.gamma}, lam={s.lam}) is not "
            "anti-ferromagnetic (need 0 <= beta <= gamma, gamma > 0, beta*gamma < 1)"
        )


def edge_factor(s: SpinSystem, r: float) -> float:
    """One child's multiplicative contribution (beta*r + 1) / (r + gamma).

    r = +inf is handled before any arithmetic and yields exactly beta, which
    keeps beta = 0 safe (naive IEEE evaluation would produce 0*inf = nan).
    Decreasing in r for anti-ferromagnetic systems, with range [beta, 1/gamma].
    """
    if r < 0 or math.isnan(r):
        raise InvalidParameterError(f"ratio must lie in [0, +inf], got {r!r}")
    if math.isinf(r):
        return s.beta
    return (s.beta * r + 1.0) / (r + s.gamma)


def guarded_exp(t: float) -> float:
    """exp(t), saturating to +inf where the float range ends."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


_LOG_TINY, _LOG_HUGE = -708.39, 709.78  # logs of the least and greatest normal floats


def linear_children(s: SpinSystem, r_max: float) -> int:
    """The most children, at most LOG_PRODUCT_CUTOFF, whose factors the
    recursion multiplies directly.  Every nonzero factor lies between 1/gamma
    and beta, or for beta = 0 the factor of r_max, the largest finite ratio
    a child can carry; k stops where the k-th powers of both ends are normal
    floats, so no partial product leaves the range where the whole does not.
    """
    f_end = s.beta or 1.0 / (r_max + s.gamma)
    if f_end == 0.0 or s.gamma == 0.0:
        return 0
    ends = (math.log(f_end), -math.log(s.gamma))
    k = LOG_PRODUCT_CUTOFF
    while k > 0 and not (_LOG_TINY <= k * min(ends) and k * max(ends) <= _LOG_HUGE):
        k -= 1
    return k


def symmetric_map(s: SpinSystem, d: int) -> Callable[[float], float]:
    """The d-ary symmetric recursion x -> lam * ((beta*x + 1) / (x + gamma))**d
    as a function of x alone.

    The arity is checked and the system's fields are read once, when the map
    is built, so a bisection that evaluates it at every step pays neither
    again.  The map takes a float x and saturates at inf where the power
    overflows.  Strictly decreasing in x on anti-ferromagnetic systems, with
    f(0) = lam / gamma**d.
    """
    if d < 1 or d != int(d):
        raise InvalidParameterError(f"arity d must be a positive integer, got {d!r}")
    b, g, lam = s.beta, s.gamma, s.lam

    def f(x: float) -> float:
        z = (b * x + 1.0) / (x + g)
        try:
            return lam * z ** d
        except OverflowError:
            return math.inf

    return f


def fixed_point_derivative(s: SpinSystem, d: int, x: float) -> float:
    """|f_d'(x)| at a fixed point x = f_d(x): d*(1-beta*gamma)*x / ((beta*x+1)*(x+gamma)).

    Only meaningful where x actually is a fixed point; the closed form avoids
    the cancellation of differentiating the power directly.  Past about
    1.3e154/sqrt(beta) the denominator overflows, and there x is divided by
    its two factors in turn.
    """
    b, g = s.beta, s.gamma
    den = (b * x + 1.0) * (x + g)
    if den == math.inf:
        return d * (1.0 - b * g) * (x / (b * x + 1.0) / (x + g))
    return d * (1.0 - b * g) * x / den


def alpha_sym(s: SpinSystem, d: int, x: float) -> float:
    """The amortised one-step contraction of the recursion at d equal child
    ratios x, in closed form.  With f = symmetric_map(s, d)(x):

        alpha_sym = d * (1 - beta*gamma) * sqrt(x * f)
                    / sqrt((beta*x + 1) * (x + gamma) * (beta*f + 1) * (f + gamma))

    contraction_bound maximises it over x at each arity below its degree bound.
    """
    f = symmetric_map(s, d)(x)
    num = d * (1.0 - s.beta * s.gamma) * (x * f) ** 0.5
    den = ((s.beta * x + 1.0) * (x + s.gamma) * (s.beta * f + 1.0) * (f + s.gamma)) ** 0.5
    return num / den


def ceil_log(base: float, x: float) -> int:
    """Smallest integer k >= 0 with base**k >= x, for base > 1 and x > 0.

    Float log alone can land on either side of an integer; the answer is
    nudged by direct power comparison so every caller sees the same k.
    """
    if base <= 1.0:
        raise InvalidParameterError(f"ceil_log base must exceed 1, got {base!r}")
    if x <= 0:
        raise InvalidParameterError(f"ceil_log argument must be positive, got {x!r}")
    if x <= 1.0:
        return 0
    k = max(0, math.ceil(math.log(x) / math.log(base) - 1e-12))
    while base ** k < x:
        k += 1
    while k > 0 and base ** (k - 1) >= x:
        k -= 1
    return k
