"""Graph instances, boundary conditions and the JSON interchange format.

Vertices are dense integers 0..n-1.  Adjacency lists are kept sorted
ascending; that order is the canonical edge order every walk-tree construction
and estimator traversal follows, so results are reproducible across runs.

Instance files are JSON objects:

    {
      "n": 5,
      "edges": [[0, 1], [1, 2], ...],
      "lambda_v": {"3": 0.5},            # optional per-vertex activities
      "fixed": {"2": "blue"},            # optional boundary spins
      "S": [2],                          # optional differing set, subset of fixed
      "params": {"beta": 0, "gamma": 1, "lambda": 1}   # optional system triple
    }
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import BLUE, GREEN, SpinSystem
from .errors import GraphFormatError, InvalidParameterError, ZeroWeightError


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[tuple[int, ...], ...]
    lambda_v: dict[int, float] = field(default_factory=dict)
    labels: tuple[str, ...] | None = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for w in self.adj[u]:
                if u < w:
                    yield (u, w)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def activity(self, v: int, s: SpinSystem) -> float:
        """Per-vertex activity, falling back to the system's global one."""
        return self.lambda_v.get(v, s.lam)


def _as_float(x) -> float | None:
    """x as a float when it is a JSON number a float can hold, else None
    (Python counts a bool as an int, and a long int overflows)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        return float(x)
    except OverflowError:
        return None


def from_edges(
    n: int,
    edges: Sequence[Sequence[int]],
    lambda_v: dict[int, float] | None = None,
    labels: Sequence[str] | None = None,
) -> Graph:
    """Build a validated Graph; raises GraphFormatError naming the bad field."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphFormatError(f"n: must be a positive integer, got {n!r}")
    seen: set[tuple[int, int]] = set()
    neigh: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        try:
            u, w = e
        except (TypeError, ValueError):
            raise GraphFormatError(f"edges[{i}]: expected a pair, got {e!r}")
        for x in (u, w):
            _check_vertex(x, n, f"edges[{i}]: vertex", GraphFormatError)
        if u == w:
            raise GraphFormatError(f"edges[{i}]: self-loop at vertex {u}")
        key = (min(u, w), max(u, w))
        if key in seen:
            raise GraphFormatError(f"edges[{i}]: duplicate edge {key}")
        seen.add(key)
        neigh[u].append(w)
        neigh[w].append(u)
    lv: dict[int, float] = {}
    if lambda_v:
        for v, val in lambda_v.items():
            _check_vertex(v, n, "lambda_v: vertex", GraphFormatError)
            x = _as_float(val)
            if x is None or x <= 0 or not math.isfinite(x):
                raise GraphFormatError(
                    f"lambda_v[{v}]: activity must be positive and finite, got {val!r}"
                )
            lv[v] = x
    lab = None
    if labels is not None:
        if not isinstance(labels, (list, tuple)):
            raise GraphFormatError(f"labels: expected a list of {n} names, got {labels!r}")
        if len(labels) != n:
            raise GraphFormatError(f"labels: expected {n} entries, got {len(labels)}")
        lab = tuple(str(x) for x in labels)
    return Graph(
        n=n,
        adj=tuple(tuple(sorted(a)) for a in neigh),
        lambda_v=lv,
        labels=lab,
    )


def max_degree(g: Graph) -> int:
    """Largest vertex degree; 0 for an edgeless graph."""
    return max((len(a) for a in g.adj), default=0)


def _check_vertex(v, n: int, what: str, error: type[Exception]) -> None:
    """Raise `error`, naming v as `what`, unless v is a vertex of an
    n-vertex graph: an int (a bool is not one) in 0..n-1."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise error(f"{what} {v!r} is not an integer vertex")
    if not 0 <= v < n:
        raise error(f"{what} {v!r} outside 0..{n - 1}")


def require_vertex(g: Graph, v, what: str = "vertex") -> None:
    """Raise InvalidParameterError unless v is an int (not a bool) in 0..n-1."""
    _check_vertex(v, g.n, what, InvalidParameterError)


@dataclass(frozen=True)
class Boundary:
    """Fixed spins plus an optional differing set S (a subset of the fixed keys).

    Vertices in S are treated as unknown by interval evaluations even though
    they carry a spin here; spatial-mixing experiments flip them.  S is
    stored as a frozenset whatever iterable it is given as.
    """

    fixed: dict[int, str] = field(default_factory=dict)
    S: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(self.S))
        for v, spin in self.fixed.items():
            if spin not in (BLUE, GREEN):
                raise GraphFormatError(f"fixed[{v}]: spin must be blue or green, got {spin!r}")
        extra = self.S - set(self.fixed)
        if extra:
            raise GraphFormatError(f"S: vertices {sorted(extra)} carry no fixed spin")

    def validate_against(self, g: Graph) -> None:
        for v in self.fixed:
            _check_vertex(v, g.n, "fixed: vertex", GraphFormatError)


def require_positive_weight(g: Graph, s: SpinSystem, boundary: Boundary | None) -> None:
    """Raise ZeroWeightError when two pinned neighbours of one spin, neither
    in the differing set, share a zero coupling (beta for blue, gamma for
    green): every configuration extending such a boundary weighs 0, so no
    conditional marginal exists."""
    zero = {spin for spin, c in ((BLUE, s.beta), (GREEN, s.gamma)) if c == 0.0}
    if not zero or boundary is None:
        return
    fixed, s_set = boundary.fixed, boundary.S
    for u, w in g.edges():
        spin = fixed.get(u)
        if spin in zero and fixed.get(w) == spin and not {u, w} & s_set:
            raise ZeroWeightError(f"pinned {spin} neighbours {u} and {w} have weight 0")


@dataclass(frozen=True)
class Instance:
    graph: Graph
    boundary: Boundary | None
    system: SpinSystem | None


# The most vertices an instance file may declare: an adjacency list is built
# for each, edges or none, so n alone sets the memory a load takes.
VERTEX_CAP = 1_000_000


def loads(text: str) -> Instance:
    """Parse and validate an instance document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:  # an over-long integer, too deep a nesting
        raise GraphFormatError(f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        raise GraphFormatError("top level: expected a JSON object")
    for key in ("n", "edges"):
        if key not in doc:
            raise GraphFormatError(f"{key}: missing required field")
    unknown = set(doc) - {"n", "edges", "lambda_v", "fixed", "S", "params", "labels"}
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")

    lambda_v = None
    if "lambda_v" in doc:
        if not isinstance(doc["lambda_v"], dict):
            raise GraphFormatError("lambda_v: expected an object mapping vertex to activity")
        lambda_v = {}
        for k, val in doc["lambda_v"].items():
            try:
                lambda_v[int(k)] = val
            except (TypeError, ValueError):
                raise GraphFormatError(f"lambda_v: bad vertex key {k!r}")
    n = doc["n"]
    if isinstance(n, int) and n > VERTEX_CAP:
        raise GraphFormatError(f"n: at most {VERTEX_CAP} vertices, got {n}")
    if not isinstance(doc["edges"], list):
        raise GraphFormatError(f"edges: expected a list of vertex pairs, got {doc['edges']!r}")
    g = from_edges(n, doc["edges"], lambda_v, doc.get("labels"))

    boundary = None
    if "fixed" in doc or "S" in doc:
        raw = doc.get("fixed", {})
        if not isinstance(raw, dict):
            raise GraphFormatError("fixed: expected an object mapping vertex to spin")
        fixed = {}
        for k, spin in raw.items():
            try:
                fixed[int(k)] = spin
            except (TypeError, ValueError):
                raise GraphFormatError(f"fixed: bad vertex key {k!r}")
        s_raw = doc.get("S", [])
        if not isinstance(s_raw, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in s_raw):
            raise GraphFormatError(f"S: expected a list of vertices, got {s_raw!r}")
        boundary = Boundary(fixed=fixed, S=frozenset(s_raw))
        boundary.validate_against(g)

    system = None
    if "params" in doc:
        p = doc["params"]
        if not isinstance(p, dict) or not {"beta", "gamma", "lambda"} <= set(p):
            raise GraphFormatError("params: expected beta, gamma and lambda")
        values = [_as_float(p[k]) for k in ("beta", "gamma", "lambda")]
        if None in values:
            raise GraphFormatError(f"params: beta, gamma and lambda must be numbers, got {p!r}")
        try:
            system = SpinSystem(*values)
        except InvalidParameterError as e:
            raise GraphFormatError(f"params: {e}")
    return Instance(graph=g, boundary=boundary, system=system)


def load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(g: Graph, boundary: Boundary | None = None, system: SpinSystem | None = None) -> str:
    """Canonical serialisation; loads(dumps(...)) reproduces the inputs."""
    doc: dict = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if g.lambda_v:
        doc["lambda_v"] = {str(v): g.lambda_v[v] for v in sorted(g.lambda_v)}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    if boundary is not None:
        doc["fixed"] = {str(v): boundary.fixed[v] for v in sorted(boundary.fixed)}
        if boundary.S:
            doc["S"] = sorted(boundary.S)
    if system is not None:
        doc["params"] = {"beta": system.beta, "gamma": system.gamma, "lambda": system.lam}
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# generators (deterministic for a given seed)


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError(f"cycle needs at least 3 vertices, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    """Centre 0 joined to `leaves` leaf vertices."""
    if leaves < 1:
        raise InvalidParameterError(f"star needs at least one leaf, got {leaves}")
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def double_star(leaves: int) -> Graph:
    """Two adjacent centres 0 and 1, each with `leaves` leaves (degree leaves+1)."""
    if leaves < 1:
        raise InvalidParameterError(f"double_star needs at least one leaf, got {leaves}")
    edges = [(0, 1)]
    nxt = 2
    for c in (0, 1):
        for _ in range(leaves):
            edges.append((c, nxt))
            nxt += 1
    return from_edges(nxt, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labelled tree, decoded from a random Pruefer sequence."""
    if n < 1:
        raise InvalidParameterError(f"random_tree needs n >= 1, got {n}")
    if n == 1:
        return from_edges(1, [])
    if n == 2:
        return from_edges(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return from_edges(n, edges)


_PAIRING_TRIES = 1000  # pairings random_regular draws before switch repair


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph via the pairing model, retrying until simple.

    The pairing model rarely gives a simple graph once d >= 6, so when every
    try fails, the last pairing's loops and repeated edges are repaired by
    degree-preserving switches drawn from the same generator.
    """
    if n * d % 2 != 0:
        raise InvalidParameterError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise InvalidParameterError(f"degree {d} impossible on {n} vertices")
    rng = random.Random(seed)
    for _ in range(_PAIRING_TRIES):
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = set()
        ok = True
        for i in range(0, len(points), 2):
            u, w = points[i], points[i + 1]
            if u == w or (min(u, w), max(u, w)) in edges:
                ok = False
                break
            edges.add((min(u, w), max(u, w)))
        if ok:
            return from_edges(n, sorted(edges))
    edges = _switch_to_simple(points[0::2], points[1::2], rng)
    if edges is None:
        raise InvalidParameterError(
            f"no simple {d}-regular graph on {n} vertices: the pairing model "
            f"failed {_PAIRING_TRIES} times and its switch repair found none"
        )
    return from_edges(n, edges)


def _switch_to_simple(us: list[int], ws: list[int], rng: random.Random):
    """Edges of the pairing us[i]-ws[i] made simple by degree-preserving switches.

    A loop or repeated pair u-w and a random pair x-y become u-x and w-y
    when neither is a loop or already present.  Each such switch removes a
    loop or a repeat and adds none, so the defects only fall; a budget of
    switch attempts bounds the rare case where none applies (None then).
    """
    def key(u: int, w: int) -> tuple[int, int]:
        return (u, w) if u < w else (w, u)

    count = Counter(key(u, w) for u, w in zip(us, ws))
    m = len(us)
    for _ in range(200 * m):
        bad = [i for i in range(m) if us[i] == ws[i] or count[key(us[i], ws[i])] > 1]
        if not bad:
            return sorted(count)
        i, j = rng.choice(bad), rng.randrange(m)
        u, w = us[i], ws[i]
        x, y = (us[j], ws[j]) if rng.random() < 0.5 else (ws[j], us[j])
        e, f = key(u, x), key(w, y)
        if u == x or w == y or e == f or count[e] or count[f]:
            continue
        for old in (key(u, w), key(x, y)):
            count[old] -= 1
            if not count[old]:
                del count[old]
        count[e] += 1
        count[f] += 1
        us[i], ws[i], us[j], ws[j] = u, x, w, y
    return None
