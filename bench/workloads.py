"""The benchmark's four workloads.

Each workload is built from a seed by ``setup`` and then offers ``round()``:
a fixed list of (key, operation) pairs that the runner times one by one and
repeats whole until the run time is used up.  The key names the inputs of
the operation; every key's output is checked once, after timing, against the
independent reference in ``reference.py`` or against a property the method
must have, and repeated keys must give identical outputs.

The program is reached only through its public modules, looked up as module
attributes at call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import reference as ref

LAMBDA_C4 = 27.0 / 16.0  # hardcore lambda_c at maximum degree 4
TOL = 1e-9  # slack for containment of a float reference in a certified interval


class CheckError(Exception):
    """An output violated a property the program must have."""


def _require(cond, what):
    if not cond:
        raise CheckError(what)


def _ordered_interval(lo, hi, what):
    _require(not (math.isnan(lo) or math.isnan(hi)), f"{what}: NaN in [{lo}, {hi}]")
    _require(lo <= hi, f"{what}: unordered interval [{lo}, {hi}]")


def _contains(lo, hi, x, what):
    _require(lo - TOL <= x <= hi + TOL, f"{what}: reference {x!r} outside [{lo!r}, {hi!r}]")


def _crossing(unique_at, value, unique_below, what, rel=1e-6):
    """The uniqueness verdict changes at `value`, from unique_below to its negation."""
    below, above = unique_at(value * (1.0 - rel)), unique_at(value * (1.0 + rel))
    _require(below == unique_below and above != unique_below,
             f"{what} = {value!r}: unique just below: {below}, just above: {above}")


def _short_cycle_edge(nb):
    """An edge (u, w) on a cycle of length 3 or 4, or None."""
    for u, ns in enumerate(nb):
        for w in ns:
            if u < w and (ns & nb[w] or any(nb[x] & (ns - {w}) for x in nb[w] - {u})):
                return u, w
    return None


def random_cubic(lib, rng, n):
    """A seeded random 3-regular graph on n vertices with girth at least 5.

    Short cycles make walk trees much smaller, so without the girth bound
    the work of a workload would depend on how many a seed happens to draw:
    on 30-vertex graphs, the summed depth-16 tree sizes from six roots vary
    by 15% between plain random_regular draws and by 2% with girth >= 5.

    random_regular draws the graph; each edge on a triangle or a 4-cycle is
    then swapped with a random edge ({a,b},{c,d} -> {a,c},{b,d}), which keeps
    every degree, until no such cycle is left.  Unlike rejection sampling,
    which needs about 40 draws per graph at n = 30, the cost hardly depends
    on the seed.
    """
    g = lib.graphs.random_regular(n, 3, seed=rng.randrange(2**31))
    nb = [set(a) for a in g.adj]
    while (bad := _short_cycle_edge(nb)) is not None:
        a, b = bad
        c = rng.randrange(n)
        d = rng.choice(sorted(nb[c]))
        if len({a, b, c, d}) < 4 or c in nb[a] or d in nb[b]:
            continue
        for x, y, z in ((a, b, c), (b, a, d), (c, d, a), (d, c, b)):
            nb[x].discard(y)
            nb[x].add(z)
    return lib.graphs.from_edges(n, [(u, w) for u in range(n) for w in nb[u] if u < w])


def _edges(g):
    return list(g.edges())


class Workload:
    name = ""

    def setup(self, lib, seed):
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def check(self, key, out):
        raise NotImplementedError

    def check_all(self, outputs):
        """Properties that relate the outputs of different keys."""

    def comparable(self, out):
        """What must repeat exactly when a key runs again."""
        return out

    def layer_extras(self, outputs):
        """Per-layer metrics that need the reference (keys run -> output)."""
        return {"partition.err_over_bound": 0.0}


# ---------------------------------------------------------------------------

class PartitionCubic(Workload):
    """approx_partition at eps 0.1 on random cubic graphs of girth >= 5.

    A round takes the next graph of a pool and runs the three systems on it.
    """

    name = "partition-cubic"
    N, POOL, EPS = 30, 6, 0.1
    SYSTEMS = {  # name -> (beta, gamma, lambda); all unique up to degree 4
        "hardcore-0.3": (0.0, 1.0, 0.3 * LAMBDA_C4),
        "hardcore-0.5": (0.0, 1.0, 0.5 * LAMBDA_C4),
        "soft": (0.2, 1.0, 1.0),
    }

    def setup(self, lib, seed):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        self.graphs = [random_cubic(lib, rng, self.N) for _ in range(self.POOL)]
        self.systems = {k: lib.core.SpinSystem(*p) for k, p in self.SYSTEMS.items()}
        # the certificates are memoised per process; fill them here
        for s in self.systems.values():
            lib.uniqueness.is_unique_up_to(s, 4)
            lib.uniqueness.contraction_bound(s, 4)
        self._next = 0
        self._ref = {}

    def round(self):
        gi = self._next % self.POOL
        self._next += 1
        g = self.graphs[gi]
        est = self.lib.estimator
        return [((gi, name), lambda g=g, s=s: self._run(est, g, s))
                for name, s in self.systems.items()]

    def _run(self, est, g, s):
        r = est.approx_partition(g, s, self.EPS)
        return (r.log_z, r.rel_error_bound)

    def _reference(self, key):
        if key not in self._ref:
            gi, name = key
            beta, gamma, lam = self.SYSTEMS[name]
            self._ref[key] = ref.log_partition(self.N, _edges(self.graphs[gi]), beta, gamma, lam)
        return self._ref[key]

    def check(self, key, out):
        log_z, bound = out
        err = abs(math.expm1(log_z - self._reference(key)))
        _require(err <= bound <= self.EPS,
                 f"partition {key}: error {err!r}, bound {bound!r}, eps {self.EPS}")

    def check_all(self, outputs):
        h = self.lib.uniqueness.hardcore_threshold(1.0, 4).values[0]
        _require(abs(h / ref.hardcore_lambda_c(4) - 1.0) < 1e-12,
                 f"hardcore_threshold(1, 4) = {h!r}, closed form {ref.hardcore_lambda_c(4)!r}")
        for name, (beta, gamma, lam) in self.SYSTEMS.items():
            _require(ref.is_unique(beta, gamma, lam, 4), f"system {name} not unique up to 4")

    def layer_extras(self, outputs):
        ratios = [abs(math.expm1(out[0] - self._reference(key))) / out[1]
                  for key, out in outputs.items()]
        return {"partition.err_over_bound": statistics.median(ratios)}


# ---------------------------------------------------------------------------

class WalkDepth(Workload):
    """bounds(Depth(t)) and decay_curve at fixed cut-offs; no certificate runs."""

    name = "walk-depth"
    N, POOL, ROOTS = 64, 3, 2
    DEPTHS, DECAY_T = (12, 14, 16), 14
    SYSTEM = (0.0, 1.0, 0.5 * LAMBDA_C4)

    def setup(self, lib, seed):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        self.graphs = [random_cubic(lib, rng, self.N) for _ in range(self.POOL)]
        self.roots = [rng.sample(range(self.N), self.ROOTS) for _ in range(self.POOL)]
        self.system = lib.core.SpinSystem(*self.SYSTEM)
        self._ref = {}

    def round(self):
        est, s = self.lib.estimator, self.system
        ops = []
        for gi, g in enumerate(self.graphs):
            for v in self.roots[gi]:
                for t in self.DEPTHS:
                    ops.append(((gi, v, "depth", t),
                                lambda g=g, v=v, t=t: self._bounds(est, g, s, v, t)))
                ops.append(((gi, v, "decay", self.DECAY_T),
                            lambda g=g, v=v: self._decay(est, g, s, v)))
        return ops

    def _bounds(self, est, g, s, v, t):
        b = est.bounds(g, s, v, policy=est.Depth(t))
        return (b.r_lo, b.r_hi, b.p_lo, b.p_hi, b.expanded)

    def _decay(self, est, g, s, v):
        return tuple((p.t, p.p_lo, p.p_hi) for p in est.decay_curve(g, s, v, t_max=self.DECAY_T))

    def _reference(self, gi):
        if gi not in self._ref:
            beta, gamma, lam = self.SYSTEM
            self._ref[gi] = ref.marginals(self.N, _edges(self.graphs[gi]), beta, gamma, lam,
                                          self.roots[gi])
        return self._ref[gi]

    def check(self, key, out):
        gi, v, kind, t = key
        p_ref = self._reference(gi)[v]
        if kind == "depth":
            r_lo, r_hi, p_lo, p_hi, nodes = out
            _ordered_interval(r_lo, r_hi, f"ratio {key}")
            _ordered_interval(p_lo, p_hi, f"marginal {key}")
            _contains(p_lo, p_hi, p_ref, f"marginal {key}")
            _require(nodes > 0, f"{key}: no node expanded")
            return
        _require([p[0] for p in out] == list(range(t + 1)), f"{key}: cut-offs 0..{t} expected")
        prev_lo, prev_hi = 0.0, 1.0
        for _, p_lo, p_hi in out:
            _ordered_interval(p_lo, p_hi, f"decay {key}")
            _contains(p_lo, p_hi, p_ref, f"decay {key}")
            _require(prev_lo - TOL <= p_lo and p_hi <= prev_hi + TOL,
                     f"decay {key}: intervals do not nest as t grows")
            prev_lo, prev_hi = p_lo, p_hi

    def check_all(self, outputs):
        """Cross-key properties: depth intervals nest in t, and the all-cut-offs
        walk gives the single-cut-off interval at every depth both ran."""
        for gi in range(self.POOL):
            for v in self.roots[gi]:
                runs = [(t, outputs[gi, v, "depth", t]) for t in self.DEPTHS
                        if (gi, v, "depth", t) in outputs]
                for (t0, a), (t1, b) in zip(runs, runs[1:]):
                    _require(a[2] - TOL <= b[2] and b[3] <= a[3] + TOL,
                             f"depth intervals at {t0} and {t1} do not nest ({gi}, {v})")
                curve = outputs.get((gi, v, "decay", self.DECAY_T))
                for t, b in runs:
                    if curve is not None and t <= self.DECAY_T:
                        _, lo, hi = curve[t]
                        _require(abs(lo - b[2]) <= TOL and abs(hi - b[3]) <= TOL,
                                 f"decay and depth walks disagree at t={t} ({gi}, {v})")


# ---------------------------------------------------------------------------

def hub_graph(lib, rng, n, min_deg, max_deg):
    """Preferential attachment that closes a triangle with every new vertex.

    Each new vertex joins a vertex u drawn by degree and one neighbour of u,
    so the graph is a 2-tree: full of short cycles, treewidth 2, and a few
    hubs.  Draws repeat until the maximum degree lies in [min_deg, max_deg].
    """
    while True:
        nb = [set() for _ in range(n)]
        edges = [(0, 1), (1, 2), (0, 2)]
        ends = [0, 1, 1, 2, 0, 2]
        for u, w in edges:
            nb[u].add(w)
            nb[w].add(u)
        for v in range(3, n):
            u = rng.choice(ends)
            w = rng.choice(sorted(nb[u]))
            for x in (u, w):
                edges.append((x, v))
                nb[x].add(v)
                nb[v].add(x)
                ends += [x, v]
        if min_deg <= max(len(a) for a in nb) <= max_deg:
            return lib.graphs.from_edges(n, edges)


class UnboundedDegree(Workload):
    """Cold certificates for a fresh universally unique system, then
    degree-scaled marginals on hub-heavy graphs."""

    name = "unbounded-degree"
    N, POOL, EPS = 400, 24, 1e-3
    # The hubs set most of the work.  Over seeds 1-10, the inter-quartile
    # range of the marginals' nodes per operation is 5% of the median with
    # 24 graphs of maximum degree 50-70, 9% with 12 such graphs, and about
    # 25% with six graphs of maximum degree 40-80.
    MIN_DEG, MAX_DEG = 50, 70
    # ranges where the certified level is 4 and the truncation base 10-12
    BETA, GAMMA, LAMBDA = (0.09, 0.11), (3.4, 3.6), (0.8, 1.4)
    SYSTEMS = 4096  # drawn in advance; a run uses far fewer
    # The walk from a random vertex costs more when it meets a hub early;
    # six of them per graph keep the work of one seed's graphs near another's.
    RANDOM_QUERIES = 6

    def setup(self, lib, seed):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        self.graphs = [hub_graph(lib, rng, self.N, self.MIN_DEG, self.MAX_DEG)
                       for _ in range(self.POOL)]
        self.queries = []
        for g in self.graphs:
            by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
            picks = [by_degree[0], by_degree[len(by_degree) // 10]]
            picks += rng.sample([v for v in range(g.n) if v not in picks], self.RANDOM_QUERIES)
            self.queries.append(picks)
        self.params = [(rng.uniform(*self.BETA), rng.uniform(*self.GAMMA),
                        rng.uniform(*self.LAMBDA)) for _ in range(self.SYSTEMS)]
        self._next = 0
        # one warm-up query on a system the operations never draw
        lib.estimator.estimate_marginal(self.graphs[0], lib.core.SpinSystem(0.1, 3.5, 1.0),
                                        self.queries[0][-1], eps=self.EPS, mode="mbased")

    def round(self):
        ops = []
        for gi in range(self.POOL):
            i = self._next % self.SYSTEMS
            self._next += 1
            ops.append(((i, gi), lambda i=i, gi=gi: self._run(i, gi)))
        return ops

    def _run(self, i, gi):
        lib = self.lib
        u, est = lib.uniqueness, lib.estimator
        # Start as cold as a fresh process.  The memos are unbounded, so
        # without this the peak RSS would grow with the operations a run
        # completes (about 0.25 MB per system) and follow the throughput.
        lib.memos.clear()
        beta, gamma, lam = self.params[i]
        s = lib.core.SpinSystem(beta, gamma, lam)
        unique = bool(u.is_unique_up_to(s, math.inf))
        alpha = u.contraction_bound(s, math.inf).alpha
        m = u.choose_M(s, alpha)
        gamma_c = u.gamma_threshold(beta, lam, math.inf).values[0]
        lam_u = u.universal_lambda_threshold(beta, gamma).values[0]
        g = self.graphs[gi]
        marg = tuple((b.r_lo, b.r_hi, b.p_lo, b.p_hi, b.exact) for b in (
            est.estimate_marginal(g, s, v, eps=self.EPS, mode="mbased")
            for v in self.queries[gi]))
        return (unique, alpha, m, gamma_c, lam_u, marg)

    def check(self, key, out):
        i, gi = key
        beta, gamma, lam = self.params[i]
        unique, alpha, m, gamma_c, lam_u, marg = out
        _require(unique and ref.is_unique(beta, gamma, lam, math.inf),
                 f"system {self.params[i]} should be universally unique")
        _require(0.0 < alpha < 1.0, f"alpha {alpha!r} outside (0, 1)")
        _require(m > 1.0, f"truncation base {m!r} not above 1")
        _crossing(lambda x: ref.is_unique(beta, x, lam, math.inf), gamma_c, False,
                  f"gamma_threshold({beta}, {lam}, inf)")
        _require(lam < lam_u, f"activity {lam!r} not below the universal threshold {lam_u!r}")
        _crossing(lambda x: ref.is_unique(beta, gamma, x, math.inf), lam_u, True,
                  f"universal_lambda_threshold({beta}, {gamma})")
        g = self.graphs[gi]
        p_ref = ref.marginals(g.n, _edges(g), beta, gamma, lam, self.queries[gi])
        for v, (r_lo, r_hi, p_lo, p_hi, exact) in zip(self.queries[gi], marg):
            # Ordered is checked on the ratio interval the walk certifies: at
            # widths of one ulp, r/(1+r) can round its ends the other way
            # (a FOUND line in CHANGES.md); the 1e-9 slack of _contains
            # covers that.
            _ordered_interval(r_lo, r_hi, f"ratio at {v}")
            _require(not (math.isnan(p_lo) or math.isnan(p_hi)), f"NaN marginal at {v}")
            _require(exact or p_hi - p_lo <= self.EPS, f"width {p_hi - p_lo!r} above eps at {v}")
            _contains(p_lo, p_hi, p_ref[v], f"marginal at {v} of system {self.params[i]}")


# ---------------------------------------------------------------------------

CLI_ENTRY = "import sys; from spindecay.cli import main; sys.exit(main())"


class Cli(Workload):
    """One spindecay process at a time, cycling through the commands.

    The child runs the same code as the installed ``spindecay`` script
    (``from spindecay.cli import main``) against the checkout's sources.
    """

    name = "cli"
    DELTA_HARDCORE = (3, 4, 5, 6)
    MARGINAL_N, PARTITION_N, EXACT_N, EXACT_FREE = 16, 16, 18, 16

    def __init__(self, src_dir, out_dir):
        self.src_dir, self.out_dir = src_dir, out_dir

    def setup(self, lib, seed):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        d = os.path.join(self.out_dir, f"cli-instances-{seed}")
        os.makedirs(d, exist_ok=True)
        hard = lib.core.SpinSystem(0.0, 1.0, 0.3 * LAMBDA_C4)
        self.instances = {}
        for kind, n, pinned in (("marginal", self.MARGINAL_N, 0),
                                ("partition", self.PARTITION_N, 0),
                                ("exact", self.EXACT_N, self.EXACT_N - self.EXACT_FREE)):
            g = lib.graphs.random_regular(n, 3, seed=rng.randrange(2**31))
            fixed = {v: "green" for v in rng.sample(range(n), pinned)}
            boundary = lib.graphs.Boundary(fixed=fixed) if fixed else None
            path = os.path.join(d, f"{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(lib.graphs.dumps(g, boundary, hard))
            free = [v for v in range(n) if v not in fixed]
            self.instances[kind] = (path, n, _edges(g), fixed, rng.choice(free))
        self.hard = (hard.beta, hard.gamma, hard.lam)
        b, gm, lm = rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0)
        self.classify_params = (b, gm, lm)
        self.inf_params = (rng.uniform(*UnboundedDegree.BETA), rng.uniform(*UnboundedDegree.GAMMA),
                           rng.uniform(*UnboundedDegree.LAMBDA))
        self.soft_beta = rng.uniform(0.05, 0.2)
        self.delta = rng.choice(self.DELTA_HARDCORE)
        self.env = dict(os.environ, PYTHONPATH=self.src_dir)
        self.commands = self._commands()
        # warm the interpreter and file caches with one short call
        self._spawn(self.commands[0][1])

    def _commands(self):
        b, g, lam = self.classify_params
        ib, ig, il = self.inf_params
        m, p, e = (self.instances[k] for k in ("marginal", "partition", "exact"))
        f = repr
        return [
            ("classify", ["classify", "--beta", f(b), "--gamma", f(g), "--lambda", f(lam)]),
            ("uniqueness", ["uniqueness", "--beta", f(ib), "--gamma", f(ig), "--lambda", f(il),
                            "--delta", "inf"]),
            ("thresholds-hardcore", ["thresholds", "--kind", "hardcore", "--gamma", "1",
                                     "--delta", str(self.delta)]),
            ("thresholds-soft", ["thresholds", "--kind", "soft", "--beta", f(self.soft_beta),
                                 "--gamma", "1", "--delta", "5"]),
            ("thresholds-gamma", ["thresholds", "--kind", "gamma", "--beta", f(ib),
                                  "--lambda", f(il), "--delta", "inf"]),
            ("thresholds-universal", ["thresholds", "--kind", "universal", "--beta", f(ib),
                                      "--gamma", f(ig)]),
            ("marginal", ["marginal", "--graph", m[0], "--vertex", str(m[4]), "--eps", "1e-3"]),
            ("partition", ["partition", "--graph", p[0], "--eps", "0.1"]),
            ("exact", ["exact", "--graph", e[0], "--vertex", str(e[4])]),
        ]

    def _spawn(self, argv):
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=self.env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def round(self):
        return [(name, lambda argv=argv: self._spawn(argv)) for name, argv in self.commands]

    def run_in_process(self):
        """One round through cli.main in this process; returns stdout bytes per call."""
        sizes = []
        for _, argv in self.commands:
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = self.lib.cli.main(argv)
            _require(code == 0, f"in-process {argv[0]} exited {code}")
            sizes.append(len(buf.getvalue().encode()))
        return sizes

    def comparable(self, out):
        """The parsed document without its timing field, for determinism checks."""
        doc = json.loads(out)
        doc.pop("wall_time_s", None)
        return doc

    def check(self, key, out):
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as e:
            raise CheckError(f"{key}: stdout is not one JSON document ({e})")
        o = doc["outputs"]
        getattr(self, "_check_" + key.replace("-", "_"))(o)

    def _check_classify(self, o):
        b, g, lam = self.classify_params
        swapped = b > g
        if swapped:
            b, g = g, b
        kind = ("degenerate" if g == 0 or b * g == 1 else
                "ferromagnetic" if b * g > 1 else "anti-ferromagnetic")
        _require(o["kind"] == kind and o["swapped"] == swapped,
                 f"classify {self.classify_params}: got {o['kind']}, swapped={o['swapped']}")

    def _check_uniqueness(self, o):
        want = ref.is_unique(*self.inf_params, math.inf)
        _require(o["unique"] == want, f"uniqueness {self.inf_params}: got {o['unique']}")
        if want:
            _require(0.0 < o["alpha"] < 1.0, f"alpha {o['alpha']!r} outside (0, 1)")
            _require(o["truncation_base"] > 1.0, "truncation base not above 1")

    def _check_thresholds_hardcore(self, o):
        want = ref.hardcore_lambda_c(self.delta)
        got = o["values"][0]
        _require(abs(got / want - 1.0) < 1e-12, f"hardcore threshold {got!r}, closed form {want!r}")

    def _check_thresholds_soft(self, o):
        lo, hi = o["values"]
        b = self.soft_beta
        _crossing(lambda x: ref.is_unique(b, 1.0, x, 5), lo, True, "soft lower threshold")
        _crossing(lambda x: ref.is_unique(b, 1.0, x, 5), hi, False, "soft upper threshold")

    def _check_thresholds_gamma(self, o):
        b, _, lam = self.inf_params
        _crossing(lambda x: ref.is_unique(b, x, lam, math.inf), o["values"][0], False,
                  "gamma threshold")

    def _check_thresholds_universal(self, o):
        b, g, _ = self.inf_params
        _crossing(lambda x: ref.is_unique(b, g, x, math.inf), o["values"][0], True,
                  "universal threshold")

    def _check_marginal(self, o):
        _, n, edges, fixed, v = self.instances["marginal"]
        p = ref.marginals(n, edges, *self.hard, [v], fixed=fixed)[v]
        _ordered_interval(o["p_lo"], o["p_hi"], "cli marginal")
        _require(o["exact"] or o["p_hi"] - o["p_lo"] <= 1e-3, "cli marginal wider than eps")
        _contains(o["p_lo"], o["p_hi"], p, "cli marginal")

    def _reference_log_z(self, kind):
        _, n, edges, fixed, _ = self.instances[kind]
        return ref.log_partition(n, edges, *self.hard, fixed=fixed)

    def _check_partition(self, o):
        err = abs(math.expm1(o["log_z"] - self._reference_log_z("partition")))
        _require(err <= o["rel_error_bound"] <= 0.1,
                 f"cli partition: error {err!r}, bound {o['rel_error_bound']!r}")

    def _check_exact(self, o):
        _, n, edges, fixed, v = self.instances["exact"]
        _require(o["n_free"] == self.EXACT_FREE, f"exact: {o['n_free']} free vertices")
        _require(abs(o["log_z"] - self._reference_log_z("exact")) <= 1e-9, "exact log_z off")
        p = ref.marginals(n, edges, *self.hard, [v], fixed=fixed)[v]
        _require(abs(o["p"] - p) <= 1e-9, f"exact marginal {o['p']!r}, reference {p!r}")

    def layer_extras(self, outputs):
        o = json.loads(outputs["partition"])["outputs"]
        err = abs(math.expm1(o["log_z"] - self._reference_log_z("partition")))
        return {"partition.err_over_bound": err / o["rel_error_bound"]}

    def startup_seconds(self, repeats=3):
        """Median wall time of a process that only imports spindecay.cli."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import spindecay.cli"], env=self.env,
                           check=True, timeout=120)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


WORKLOADS = {w.name: w for w in (PartitionCubic, WalkDepth, UnboundedDegree, Cli)}
