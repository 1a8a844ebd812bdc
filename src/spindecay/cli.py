"""Command-line interface.

Every command prints one JSON document to stdout:

    {"command": ..., "inputs": ..., "outputs": ..., "wall_time_s": ...}

Floats are rendered with 17 significant digits so round-tripping through the
output loses nothing.  Errors go to stderr as plain text, and the exit code
tells the caller what went wrong: 0 success, 1 usage or input problems,
2 violated preconditions (non-uniqueness, bad parameters, empty supports),
3 exhausted budgets.

Systems with beta > gamma are accepted here and handled by swapping the two
spin states (and inverting activities) before calling the library, then
translating probabilities, ratios and configurations back on the way out.
"""
from __future__ import annotations

import argparse
import dataclasses
import json.encoder
import math
import sys
import time

from .core import (
    ANTIFERROMAGNETIC,
    BLUE,
    GREEN,
    SpinSystem,
    classify,
)
from .errors import (
    BudgetExceededError,
    EnumerationCapError,
    GraphFormatError,
    InvalidParameterError,
    NoThresholdError,
    UniquenessError,
    ZeroWeightError,
)
from .estimator import (
    DEFAULT_BUDGET,
    Depth,
    approx_partition,
    bounds,
    decay_curve,
    estimate_marginal,
)
from .graphs import Boundary, Graph, Instance, load, loads
from .oracle import ENUMERATION_CAP, exact_marginal, exact_partition
from .saw import dump_levels
from .uniqueness import (
    choose_M,
    contraction_bound,
    gamma_threshold,
    hardcore_threshold,
    is_unique_up_to,
    soft_thresholds,
    universal_lambda_threshold,
)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON with full-precision floats


def _float_str(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return format(x, ".17g")


class _Encoder(json.JSONEncoder):
    """Standard encoder, but floats carry 17 significant digits."""

    def iterencode(self, o, _one_shot=False):
        return json.encoder._make_iterencode(
            {} if self.check_circular else None,
            self.default,
            json.encoder.encode_basestring_ascii,
            self.indent,
            _float_str,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            False,
        )(o, 0)


def _plain(x):
    """Recursively render results as JSON-ready structures."""
    if isinstance(x, SpinSystem):
        return {"beta": x.beta, "gamma": x.gamma, "lambda": x.lam}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    return x


def _emit(command: str, inputs: dict, outputs, started: float) -> None:
    doc = {
        "command": command,
        "inputs": _plain(inputs),
        "outputs": _plain(outputs),
        "wall_time_s": time.perf_counter() - started,
    }
    print(json.dumps(doc, cls=_Encoder, indent=2))


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _delta_arg(text: str):
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, help="same-spin coupling for blue")
    p.add_argument("--gamma", type=float, help="same-spin coupling for green")
    p.add_argument("--lambda", dest="lam", type=float, help="blue activity")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, metavar="PATH",
                   help="instance file (JSON), or - for stdin")
    p.add_argument("--fix", action="append", default=[], metavar="V=SPIN",
                   help="pin a vertex, e.g. --fix 3=blue (repeatable)")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="walk-tree node budget (default %(default)s)")


def _resolve_system(args, embedded: SpinSystem | None) -> SpinSystem:
    beta = args.beta if args.beta is not None else (embedded.beta if embedded else None)
    gamma = args.gamma if args.gamma is not None else (embedded.gamma if embedded else None)
    lam = args.lam if args.lam is not None else (embedded.lam if embedded else None)
    missing = [n for n, v in (("--beta", beta), ("--gamma", gamma), ("--lambda", lam))
               if v is None]
    if missing:
        raise _UsageError(
            f"missing {', '.join(missing)} (no value on the command line or in the file)"
        )
    return SpinSystem(beta, gamma, lam)


def _parse_fixes(fixes: list[str]) -> dict[int, str]:
    out: dict[int, str] = {}
    for item in fixes:
        v, sep, spin = item.partition("=")
        if not sep or spin not in (BLUE, GREEN):
            raise _UsageError(f"--fix expects V=blue or V=green, got {item!r}")
        try:
            out[int(v)] = spin
        except ValueError:
            raise _UsageError(f"--fix: bad vertex {v!r}")
    return out


def _load_boundary(args) -> tuple[Instance, Boundary | None]:
    """The instance file and its boundary with the --fix pins added."""
    if args.graph == "-":
        inst = loads(sys.stdin.read())
    else:
        inst = load(args.graph)
    boundary = inst.boundary
    extra = _parse_fixes(args.fix)
    if extra:
        fixed = dict(boundary.fixed) if boundary else {}
        fixed.update(extra)
        boundary = Boundary(fixed=fixed, S=boundary.S if boundary else frozenset())
        boundary.validate_against(inst.graph)
    return inst, boundary


def _load_instance(args) -> tuple[Graph, Boundary | None, SpinSystem]:
    inst, boundary = _load_boundary(args)
    return inst.graph, boundary, _resolve_system(args, inst.system)


# ---------------------------------------------------------------------------
# spin-swap translation for beta > gamma inputs


def _canonical(g: Graph, b: Boundary | None, s: SpinSystem):
    """Return (graph, boundary, system, swapped) with beta <= gamma."""
    cls = classify(s)
    if not cls.swapped:
        return g, b, s, False
    g2 = Graph(
        n=g.n,
        adj=g.adj,
        lambda_v={v: 1.0 / l for v, l in g.lambda_v.items()},
        labels=g.labels,
    )
    b2 = None
    if b is not None:
        flipped = {v: (GREEN if sp == BLUE else BLUE) for v, sp in b.fixed.items()}
        b2 = Boundary(fixed=flipped, S=b.S)
    return g2, b2, cls.system, True


def _flip_spin(spin: str) -> str:
    return GREEN if spin == BLUE else BLUE


def _invert_ratio(r: float) -> float:
    if r == 0.0:
        return math.inf
    if math.isinf(r):
        return 0.0
    return 1.0 / r


def _log_activity_sum(g: Graph, s: SpinSystem) -> float:
    return sum(math.log(g.activity(v, s)) for v in range(g.n))


# ---------------------------------------------------------------------------
# command handlers; each returns (inputs, outputs)


def _cmd_classify(args):
    s = SpinSystem(args.beta, args.gamma, args.lam)
    cls = classify(s)
    outputs = {
        "kind": cls.kind,
        "swapped": cls.swapped,
        "antiferromagnetic": cls.kind == ANTIFERROMAGNETIC,
        "normalized": cls.system,
    }
    return {"beta": s.beta, "gamma": s.gamma, "lambda": s.lam}, outputs


_MAX_LISTED = 32


def _cmd_uniqueness(args):
    s0 = SpinSystem(args.beta, args.gamma, args.lam)
    cls = classify(s0)
    s = cls.system
    res = is_unique_up_to(s, args.delta)
    checked = list(res.checked)
    outputs = {
        "unique": res.unique,
        "delta": res.delta,
        "swapped": cls.swapped,
        "normalized": s,
        "checked_count": len(checked),
        "checked": checked[:_MAX_LISTED],
        "tail_start": res.tail_start,
        "tail_bound": res.tail_bound,
        "violating": res.violating,
        "reason": res.reason,
        "alpha": None,
        "truncation_base": None,
    }
    if res.unique:
        cb = contraction_bound(s, args.delta)
        outputs["alpha"] = cb.alpha
        if args.delta == math.inf:
            try:
                outputs["truncation_base"] = choose_M(s, cb.alpha)
            except NoThresholdError:
                outputs["truncation_base"] = None
    inputs = {"beta": s0.beta, "gamma": s0.gamma, "lambda": s0.lam, "delta": args.delta}
    return inputs, outputs


def _cmd_thresholds(args):
    kind = args.kind
    if kind == "hardcore":
        if args.gamma is None:
            raise _UsageError("--kind hardcore needs --gamma")
        rep = hardcore_threshold(args.gamma, args.delta)
        inputs = {"kind": kind, "gamma": args.gamma, "delta": args.delta}
    elif kind == "soft":
        if args.beta is None or args.gamma is None:
            raise _UsageError("--kind soft needs --beta and --gamma")
        rep = soft_thresholds(args.beta, args.gamma, args.delta)
        inputs = {"kind": kind, "beta": args.beta, "gamma": args.gamma,
                  "delta": args.delta}
    elif kind == "gamma":
        if args.beta is None or args.lam is None:
            raise _UsageError("--kind gamma needs --beta and --lambda")
        rep = gamma_threshold(args.beta, args.lam, args.delta)
        inputs = {"kind": kind, "beta": args.beta, "lambda": args.lam,
                  "delta": args.delta}
    else:  # universal
        if args.beta is None or args.gamma is None:
            raise _UsageError("--kind universal needs --beta and --gamma")
        rep = universal_lambda_threshold(args.beta, args.gamma)
        inputs = {"kind": kind, "beta": args.beta, "gamma": args.gamma}
    return inputs, rep


def _cmd_marginal(args):
    g, b, s0 = _load_instance(args)
    g2, b2, s, swapped = _canonical(g, b, s0)
    if args.depth is not None:
        est = bounds(g2, s, args.vertex, b2, Depth(args.depth), budget=args.budget)
    else:
        est = estimate_marginal(
            g2, s, args.vertex, b2, eps=args.eps, mode=args.mode, budget=args.budget
        )
    out = dataclasses.asdict(est)
    if swapped:
        out["p_lo"], out["p_hi"] = 1.0 - est.p_hi, 1.0 - est.p_lo
        out["r_lo"], out["r_hi"] = _invert_ratio(est.r_hi), _invert_ratio(est.r_lo)
    out["width"] = out["p_hi"] - out["p_lo"]
    out["swapped"] = swapped
    inputs = {
        "graph": args.graph, "vertex": args.vertex, "eps": args.eps,
        "mode": args.mode, "depth": args.depth, "budget": args.budget,
        "beta": s0.beta, "gamma": s0.gamma, "lambda": s0.lam,
    }
    return inputs, out


def _parse_order(text: str | None, n: int):
    if text is None or text == "input":
        return None
    if text == "reverse":
        return list(range(n - 1, -1, -1))
    try:
        order = [int(x) for x in text.split(",")]
    except ValueError:
        raise _UsageError(
            f"--order expects 'input', 'reverse' or a comma-separated list, got {text!r}"
        )
    return order


def _cmd_partition(args):
    g, b, s0 = _load_instance(args)
    g2, b2, s, swapped = _canonical(g, b, s0)
    order = _parse_order(args.order, g.n)
    est = approx_partition(
        g2, s, args.eps, boundary=b2, order=order, mode=args.mode, budget=args.budget
    )
    log_z = est.log_z
    config = est.chosen_config
    if swapped:
        log_z += _log_activity_sum(g, s0)
        config = tuple(_flip_spin(sp) for sp in config)
    outputs = {
        "log_z": log_z,
        "rel_error_bound": est.rel_error_bound,
        "chosen_config": list(config),
        "per_vertex_p": [[v, p] for v, p in est.per_vertex_p],
        "mode": est.mode,
        "swapped": swapped,
    }
    inputs = {
        "graph": args.graph, "eps": args.eps, "mode": args.mode,
        "order": args.order, "budget": args.budget, "beta": s0.beta,
        "gamma": s0.gamma, "lambda": s0.lam,
    }
    return inputs, outputs


def _cmd_exact(args):
    g, b, s0 = _load_instance(args)
    g2, b2, s, swapped = _canonical(g, b, s0)
    res = exact_partition(g2, s, b2, cap=args.cap)
    log_z = res.log_z + (_log_activity_sum(g, s0) if swapped else 0.0)
    outputs = {
        "log_z": log_z,
        "z": math.exp(log_z) if log_z < 700.0 else math.inf,
        "n_free": res.n_free,
        "terms": res.terms,
        "swapped": swapped,
    }
    if args.vertex is not None:
        m = exact_marginal(g2, s, args.vertex, b2, cap=args.cap)
        p, ratio = m.p, m.ratio
        if swapped:
            p, ratio = 1.0 - p, _invert_ratio(ratio)
        outputs["vertex"] = args.vertex
        outputs["p"] = p
        outputs["ratio"] = ratio
    inputs = {
        "graph": args.graph, "vertex": args.vertex, "cap": args.cap,
        "beta": s0.beta, "gamma": s0.gamma, "lambda": s0.lam,
    }
    return inputs, outputs


def _cmd_decay(args):
    g, b, s0 = _load_instance(args)
    g2, b2, s, swapped = _canonical(g, b, s0)
    curve = decay_curve(g2, s, args.vertex, b2, t_max=args.t_max, budget=args.budget)
    points = []
    for pt in curve:
        p_lo, p_hi = pt.p_lo, pt.p_hi
        if swapped:
            p_lo, p_hi = 1.0 - pt.p_hi, 1.0 - pt.p_lo
        points.append({"t": pt.t, "width": pt.width, "p_lo": p_lo, "p_hi": p_hi})
    inputs = {
        "graph": args.graph, "vertex": args.vertex, "t_max": args.t_max,
        "budget": args.budget, "beta": s0.beta, "gamma": s0.gamma,
        "lambda": s0.lam,
    }
    return inputs, {"points": points, "swapped": swapped}


def _cmd_saw_dump(args):
    inst, boundary = _load_boundary(args)
    dump = dump_levels(inst.graph, args.vertex, args.depth, boundary)
    inputs = {"graph": args.graph, "vertex": args.vertex, "depth": args.depth}
    return inputs, dump


# ---------------------------------------------------------------------------
# parser assembly and dispatch


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spindecay",
        description="certified marginals and partition sums for two-state "
                    "anti-ferromagnetic spin systems",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="name the parameter regime")
    _add_system_args(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("uniqueness", help="decide uniqueness up to a degree bound")
    _add_system_args(p)
    p.add_argument("--delta", type=_delta_arg, required=True,
                   help="degree bound (an integer >= 2, or inf)")
    p.set_defaults(handler=_cmd_uniqueness)

    p = sub.add_parser("thresholds", help="critical activities and couplings")
    _add_system_args(p)
    p.add_argument("--kind", required=True,
                   choices=["hardcore", "soft", "gamma", "universal"])
    p.add_argument("--delta", type=_delta_arg, default=math.inf,
                   help="degree bound (default inf)")
    p.set_defaults(handler=_cmd_thresholds)

    p = sub.add_parser("marginal", help="certified marginal interval for a vertex")
    _add_graph_args(p)
    _add_system_args(p)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-2, help="target interval width")
    p.add_argument("--mode", choices=["auto", "depth", "mbased"], default="auto")
    p.add_argument("--depth", type=int, default=None,
                   help="evaluate one fixed depth cutoff instead of chasing eps")
    _add_run_args(p)
    p.set_defaults(handler=_cmd_marginal)

    p = sub.add_parser("partition", help="approximate the partition sum")
    _add_graph_args(p)
    _add_system_args(p)
    p.add_argument("--eps", type=float, default=0.05, help="relative accuracy target")
    p.add_argument("--mode", choices=["auto", "depth", "mbased"], default="auto")
    p.add_argument("--order", default=None,
                   help="vertex elimination order: input, reverse, or v0,v1,...")
    _add_run_args(p)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("exact", help="brute-force partition sum (and marginal)")
    _add_graph_args(p)
    _add_system_args(p)
    p.add_argument("--vertex", type=int, default=None,
                   help="also report this vertex's exact marginal")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                   help="largest tolerated free-vertex count (default %(default)s)")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("decay", help="interval width at every depth cutoff")
    _add_graph_args(p)
    _add_system_args(p)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--t-max", type=int, default=10, dest="t_max")
    _add_run_args(p)
    p.set_defaults(handler=_cmd_decay)

    p = sub.add_parser("saw-dump", help="dump walk-tree levels for inspection")
    _add_graph_args(p)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(handler=_cmd_saw_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    started = time.perf_counter()
    try:
        inputs, outputs = args.handler(args)
    except (_UsageError, GraphFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (InvalidParameterError, UniquenessError, NoThresholdError,
            ZeroWeightError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceededError, EnumerationCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    _emit(args.command, inputs, outputs, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
