"""Spans recorded around calls into spindecay's public functions.

The tracer replaces a public function by a timing wrapper under every name
through which code can reach it: the defining module and each spindecay
module that imported it into its own namespace (``approx_partition`` looks
up ``estimator.estimate_marginal``; the estimator and the CLI call their own
imported ``contraction_bound``).  Nothing inside the package is changed
otherwise, so a span covers exactly one call of a public function, and nested
public calls become child spans.

Spans live in memory as [name, start, end, parent index, info, layer] and
are written out when the run ends.
"""
from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

# (module, function) -> layer; the layer names the benchmark's metrics use
TRACED = {
    ("uniqueness", "is_unique_up_to"): "uniqueness",
    ("uniqueness", "contraction_bound"): "uniqueness",
    ("uniqueness", "choose_M"): "uniqueness",
    ("uniqueness", "gamma_threshold"): "uniqueness",
    ("uniqueness", "universal_lambda_threshold"): "uniqueness",
    ("uniqueness", "hardcore_threshold"): "uniqueness",
    ("uniqueness", "soft_thresholds"): "uniqueness",
    ("estimator", "bounds"): "kernel",
    ("estimator", "decay_curve"): "kernel",
    ("estimator", "estimate_marginal"): "marginal",
    ("estimator", "approx_partition"): "partition",
    ("graphs", "from_edges"): "graphs",
    ("graphs", "random_regular"): "graphs",
    ("graphs", "load"): "graphs",
    ("graphs", "loads"): "graphs",
    ("oracle", "exact_partition"): "oracle",
    ("oracle", "exact_marginal"): "oracle",
    ("cli", "main"): "cli",
}

THRESHOLDS = ("gamma_threshold", "universal_lambda_threshold",
              "hardcore_threshold", "soft_thresholds")
# memoised certificate functions whose cache statistics the trace reads
MEMOISED = ("fixed_point", "is_unique_up_to", "contraction_bound")


def _info(name, bound_args, result):
    """Per-call facts the layer metrics need, read off arguments and results."""
    if name in ("bounds", "estimate_marginal"):
        info = {"nodes": result.expanded, "level": result.level,
                "exact": result.exact, "width": result.p_hi - result.p_lo}
        if name == "estimate_marginal":
            info["eps"] = bound_args.arguments["eps"]
        return info
    if name == "approx_partition":
        return {"bound": result.rel_error_bound, "eps": bound_args.arguments["eps"]}
    if name == "exact_partition":
        return {"terms": result.terms}
    return None


class Memos:
    """Hit and miss counts of the memoised certificate functions.

    Counts survive clear(), which empties the memos (lru_cache's own
    cache_clear also resets its statistics)."""

    def __init__(self, uniqueness):
        self._funcs = {f: getattr(uniqueness, f) for f in MEMOISED}
        self._carried = {f: (0, 0) for f in MEMOISED}

    def counts(self, f):
        info = self._funcs[f].cache_info()
        hits, misses = self._carried[f]
        return info.hits + hits, info.misses + misses

    def clear(self):
        for f, func in self._funcs.items():
            self._carried[f] = self.counts(f)
            func.cache_clear()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.cache_base: dict[str, tuple[int, int]] = {}
        self.memos = None

    # -- installation -------------------------------------------------------

    def install(self, memos):
        """Wrap every traced function under each spindecay name bound to it."""
        self.memos = memos
        loaded = {name: mod for name, mod in sys.modules.items()
                  if mod is not None and (name == "spindecay" or name.startswith("spindecay."))}
        for (mod_name, func), layer in TRACED.items():
            home = loaded.get("spindecay." + mod_name)
            if home is None:
                continue
            original = getattr(home, func)
            wrapper = self._wrap(func, layer, original)
            for mod in loaded.values():
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self):
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def _wrap(self, name, layer, original):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(original) if name in (
            "estimate_marginal", "approx_partition") else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None, layer]
            spans.append(span)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            bound_args = None
            if signature is not None:
                bound_args = signature.bind(*args, **kwargs)
                bound_args.apply_defaults()
            span[4] = _info(name, bound_args, result)
            return result

        return wrapper

    # -- cache statistics ---------------------------------------------------

    def mark_caches(self):
        self.cache_base = {f: self.memos.counts(f) for f in MEMOISED}

    def cache_delta(self, f):
        hits, misses = self.memos.counts(f)
        base_h, base_m = self.cache_base[f]
        return hits - base_h, misses - base_m

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, info, layer in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": t0, "end": t1,
                                     "parent": parent, "info": info}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from a list of spans

def layer_metrics(spans, ops, tracer):
    """Every per-layer metric, normalised per operation where it is a total.

    `spans` are the spans of the traced phase and `ops` the operations it
    completed (or the in-process CLI calls on the cli workload).
    """
    per = 1.0 / max(ops, 1)
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[0], []).append(sp)
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append(i)

    def dur(sp):
        return sp[2] - sp[1]

    def child_time(i):
        return sum(dur(spans[c]) for c in children.get(i, ()))

    def outer_seconds(layer, names=None):
        return sum(dur(sp) for sp in outermost(spans, layer) if names is None or sp[0] in names)

    def total(name):
        return sum(dur(sp) for sp in by_name.get(name, ()))

    uniq = [sp for sp in spans if sp[5] == "uniqueness"]
    hits = misses = 0
    for f in MEMOISED:
        h, m = tracer.cache_delta(f)
        hits, misses = hits + h, misses + m
    m = {
        "uniqueness.calls": len(uniq) * per,
        "uniqueness.s": outer_seconds("uniqueness") * per,
        "uniqueness.contraction_bound_s": total("contraction_bound") * per,
        "uniqueness.choose_M_s": total("choose_M") * per,
        "uniqueness.thresholds_s": outer_seconds("uniqueness", THRESHOLDS) * per,
        "uniqueness.fixed_point_solves": tracer.cache_delta("fixed_point")[1] * per,
        "uniqueness.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }

    # a call that raised carries no info and no result to count
    marg_idx = [i for i, sp in enumerate(spans) if sp[0] == "estimate_marginal" and sp[4]]
    marg = [spans[i] for i in marg_idx]
    walks = [sp for sp in by_name.get("bounds", ()) if sp[4]] + marg
    nodes = sum(sp[4]["nodes"] for sp in walks)
    walk_s = total("bounds") + sum(dur(spans[i]) - child_time(i) for i in marg_idx)
    m.update({
        "kernel.walks": (len(walks) + len(by_name.get("decay_curve", []))) * per,
        "kernel.nodes": nodes * per,
        "kernel.s": walk_s * per,
        "kernel.us_per_node": 1e6 * walk_s / nodes if nodes else 0.0,
        "kernel.decay_s": total("decay_curve") * per,
    })

    inexact = [sp[4]["width"] / sp[4]["eps"] for sp in marg if not sp[4]["exact"]]
    m.update({
        "marginal.calls": len(marg) * per,
        "marginal.s": total("estimate_marginal") * per,
        "marginal.level_mean": statistics.fmean(sp[4]["level"] for sp in marg) if marg else 0.0,
        "marginal.nodes_last": statistics.fmean(sp[4]["nodes"] for sp in marg) if marg else 0.0,
        "marginal.exact": sum(sp[4]["exact"] for sp in marg) / len(marg) if marg else 0.0,
        "marginal.width_over_eps": statistics.median(inexact) if inexact else 0.0,
    })

    part_idx = [i for i, sp in enumerate(spans) if sp[0] == "approx_partition" and sp[4]]
    part = [spans[i] for i in part_idx]
    m.update({
        "partition.calls": len(part) * per,
        "partition.s": total("approx_partition") * per,
        "partition.self_s": sum(dur(spans[i]) - child_time(i) for i in part_idx) * per,
        "partition.marginals_per_call": (
            sum(1 for i in part_idx for c in children.get(i, ())
                if spans[c][0] == "estimate_marginal") / len(part) if part else 0.0),
        "partition.bound_over_eps": (
            statistics.median(sp[4]["bound"] / sp[4]["eps"] for sp in part) if part else 0.0),
    })

    m.update({
        "graphs.load_s": outer_seconds("graphs", ("load", "loads")) * per,
        "oracle.s": outer_seconds("oracle") * per,
        "oracle.terms": sum(sp[4]["terms"] for sp in by_name.get("exact_partition", ())
                            if sp[4]) * per,
    })

    main_idx = [i for i, sp in enumerate(spans) if sp[0] == "main"]
    m.update({
        "cli.main_s": statistics.fmean(dur(spans[i]) for i in main_idx) if main_idx else 0.0,
        "cli.overhead_s": (statistics.fmean(dur(spans[i]) - child_time(i) for i in main_idx)
                           if main_idx else 0.0),
    })
    return m


def outermost(spans, layer):
    """Spans of `layer` with no ancestor span of the same layer."""
    out = []
    for sp in spans:
        if sp[5] != layer:
            continue
        p = sp[3]
        while p >= 0 and spans[p][5] != layer:
            p = spans[p][3]
        if p < 0:
            out.append(sp)
    return out


def outermost_seconds(spans, layer):
    return sum(sp[2] - sp[1] for sp in outermost(spans, layer))
