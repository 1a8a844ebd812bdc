"""Command-line interface.

Every command prints one JSON document to stdout:

    {"command": ..., "inputs": ..., "outputs": ..., "wall_time_s": ...}

Documents are written by json.dumps with two spaces of indentation, and
floats by Python's repr, the shortest text that parses back to the same
double, so round-tripping through the output loses nothing.  The library's
records are NamedTuples, which json.dumps would write as arrays, so `_plain`
first turns each into the object of its fields (`_asdict`) and a SpinSystem
into {"beta", "gamma", "lambda"}.  No document nests more than a few
levels: `saw-dump` lists the walk tree as flat node records, whose depths
rebuild the tree (see `saw.dump_levels`).  Errors go to stderr as plain
text, and the exit code tells the caller what went wrong: 0 success, 1
usage or input problems, 2 violated preconditions (non-uniqueness, bad
parameters, empty supports), 3 exhausted budgets, 4 any other library
failure (a search or a computation that did not finish where the method
says it must).

Systems with beta > gamma are passed to the library as given: the estimator
swaps the two spin labels itself and reports in the caller's labels, and the
exact oracle needs no orientation.  Documents only record the swap, as
"swapped": true.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

# Each handler imports the modules it calls, so that a command loads only
# what it runs: `classify` needs nothing beyond core.
from .core import (
    ANTIFERROMAGNETIC,
    BLUE,
    DEFAULT_BUDGET,
    ENUMERATION_CAP,
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
    SpinDecayError,
    UniquenessError,
    ZeroWeightError,
)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON output


def _plain(x):
    """x in JSON's own types: a record becomes the object of its fields and
    a system {"beta", "gamma", "lambda"}.  This runs before json.dumps,
    which writes every tuple, a record included, as an array without asking
    a hook."""
    if isinstance(x, (str, int, float)) or x is None:
        return x
    if isinstance(x, SpinSystem):
        return {"beta": x.beta, "gamma": x.gamma, "lambda": x.lam}
    if isinstance(x, tuple) and hasattr(x, "_asdict"):
        x = x._asdict()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _emit(command: str, inputs: dict, outputs, started: float) -> None:
    doc = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - started,
    }
    print(json.dumps(_plain(doc), indent=2))


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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="walk-tree node budget (default %(default)s)")


def _resolve_system(args, embedded: SpinSystem | None) -> SpinSystem:
    beta = args.beta if args.beta is not None else (embedded.beta if embedded else None)
    gamma = args.gamma if args.gamma is not None else (embedded.gamma if embedded else None)
    lam = args.lam if args.lam is not None else (embedded.lam if embedded else None)
    missing = [n for n, v in (("--beta", beta), ("--gamma", gamma), ("--lambda", lam))
               if v is None]
    if missing:
        where = "on the command line or in the file" if "graph" in args else "on the command line"
        raise _UsageError(f"missing {', '.join(missing)} (no value {where})")
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


def _load_boundary(args):
    """The instance file and its boundary with the --fix pins added."""
    from .graphs import Boundary, load, loads

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


def _load_instance(args):
    """The graph, its boundary and the system (flags before the file's)."""
    inst, boundary = _load_boundary(args)
    return inst.graph, boundary, _resolve_system(args, inst.system)


# ---------------------------------------------------------------------------
# command handlers; each returns (inputs, outputs)


def _cmd_classify(args):
    s = _resolve_system(args, None)
    cls = classify(s)
    outputs = {
        "kind": cls.kind,
        "swapped": cls.swapped,
        "antiferromagnetic": cls.kind == ANTIFERROMAGNETIC,
        "normalized": cls.system,
    }
    return {"beta": s.beta, "gamma": s.gamma, "lambda": s.lam}, outputs


def _cmd_uniqueness(args):
    from .uniqueness import choose_M, contraction_bound, is_unique_up_to

    s0 = _resolve_system(args, None)
    cls = classify(s0)
    s = cls.system
    res = is_unique_up_to(s, args.delta)
    outputs = {
        "unique": res.unique,
        "delta": res.delta,
        "swapped": cls.swapped,
        "normalized": s,
        "checked_count": res.checked,
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


# --kind: the threshold function in `uniqueness` and the arguments it takes,
# in order
_THRESHOLDS = {
    "hardcore": ("hardcore_threshold", ("gamma", "delta")),
    "soft": ("soft_thresholds", ("beta", "gamma", "delta")),
    "gamma": ("gamma_threshold", ("beta", "lam", "delta")),
    "universal": ("universal_lambda_threshold", ("beta", "gamma")),
}
_SYSTEM_FLAGS = {"beta": "--beta", "gamma": "--gamma", "lam": "--lambda"}


def _cmd_thresholds(args):
    from . import uniqueness

    func, names = _THRESHOLDS[args.kind]
    values = [getattr(args, name) for name in names]
    if None in values:  # --delta has a default
        flags = " and ".join(_SYSTEM_FLAGS[name] for name in names if name != "delta")
        raise _UsageError(f"--kind {args.kind} needs {flags}")
    inputs = {"kind": args.kind}
    inputs.update(("lambda" if name == "lam" else name, v) for name, v in zip(names, values))
    return inputs, getattr(uniqueness, func)(*values)


def _cmd_marginal(args):
    from .estimator import Depth, bounds, estimate_marginal

    g, b, s = _load_instance(args)
    if args.depth is not None:
        est = bounds(g, s, args.vertex, b, Depth(args.depth), budget=args.budget)
    else:
        est = estimate_marginal(
            g, s, args.vertex, b, eps=args.eps, mode=args.mode, budget=args.budget
        )
    out = est._asdict()
    out["width"] = est.width
    out["swapped"] = classify(s).swapped
    inputs = {
        "graph": args.graph, "vertex": args.vertex, "eps": args.eps,
        "mode": args.mode, "depth": args.depth, "budget": args.budget,
        "beta": s.beta, "gamma": s.gamma, "lambda": s.lam,
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
    from .estimator import approx_partition

    g, b, s = _load_instance(args)
    order = _parse_order(args.order, g.n)
    est = approx_partition(
        g, s, args.eps, boundary=b, order=order, mode=args.mode, budget=args.budget
    )
    outputs = {
        "log_z": est.log_z,
        "log_z_lo": est.log_z_lo,
        "log_z_hi": est.log_z_hi,
        "rel_error_bound": est.rel_error_bound,
        "chosen_config": est.chosen_config,
        "per_vertex_p": est.per_vertex_p,
        "expanded": est.expanded,
        "mode": est.mode,
        "swapped": classify(s).swapped,
    }
    inputs = {
        "graph": args.graph, "eps": args.eps, "mode": args.mode,
        "order": args.order, "budget": args.budget, "beta": s.beta,
        "gamma": s.gamma, "lambda": s.lam,
    }
    return inputs, outputs


def _cmd_exact(args):
    from .oracle import exact_marginal, exact_partition

    g, b, s = _load_instance(args)
    res = exact_partition(g, s, b, cap=args.cap)
    outputs = {
        "log_z": res.log_z,
        "z": res.z,
        "n_free": res.n_free,
        "terms": res.terms,
        "swapped": classify(s).swapped,
    }
    if args.vertex is not None:
        m = exact_marginal(g, s, args.vertex, b, cap=args.cap)
        outputs.update(vertex=args.vertex, p=m.p, ratio=m.ratio)
    inputs = {
        "graph": args.graph, "vertex": args.vertex, "cap": args.cap,
        "beta": s.beta, "gamma": s.gamma, "lambda": s.lam,
    }
    return inputs, outputs


def _cmd_decay(args):
    from .estimator import decay_curve

    g, b, s = _load_instance(args)
    curve = decay_curve(g, s, args.vertex, b, t_max=args.t_max, budget=args.budget)
    inputs = {
        "graph": args.graph, "vertex": args.vertex, "t_max": args.t_max,
        "budget": args.budget, "beta": s.beta, "gamma": s.gamma,
        "lambda": s.lam,
    }
    return inputs, {"points": curve, "swapped": classify(s).swapped}


def _cmd_saw_dump(args):
    from .graphs import require_positive_weight
    from .saw import dump_levels

    inst, boundary = _load_boundary(args)
    if inst.system is not None:  # the tree's shape does not need one
        require_positive_weight(inst.graph, inst.system, boundary)
    nodes = dump_levels(inst.graph, args.vertex, args.depth, boundary, args.budget)
    inputs = {"graph": args.graph, "vertex": args.vertex, "depth": args.depth,
              "budget": args.budget}
    return inputs, {"nodes": nodes}


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
    p.add_argument("--mode", choices=["depth", "mbased"], default="depth")
    p.add_argument("--depth", type=int, default=None,
                   help="evaluate one fixed depth cutoff instead of chasing eps")
    _add_run_args(p)
    p.set_defaults(handler=_cmd_marginal)

    p = sub.add_parser("partition", help="approximate the partition sum")
    _add_graph_args(p)
    _add_system_args(p)
    p.add_argument("--eps", type=float, default=0.05, help="relative accuracy target")
    p.add_argument("--mode", choices=["depth", "mbased"], default="depth")
    p.add_argument("--order", default=None,
                   help="vertex elimination order: input, reverse, or v0,v1,...")
    _add_run_args(p)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("exact", help="exact partition sum (and marginal) by variable elimination")
    _add_graph_args(p)
    _add_system_args(p)
    p.add_argument("--vertex", type=int, default=None,
                   help="also report this vertex's exact marginal")
    p.add_argument("--cap", type=_positive_int, default=ENUMERATION_CAP,
                   help="most vertices one elimination step may join, a table of "
                        "2^cap entries (default %(default)s)")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("decay", help="interval width at every depth cutoff")
    _add_graph_args(p)
    _add_system_args(p)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--t-max", type=int, default=10, dest="t_max")
    _add_run_args(p)
    p.set_defaults(handler=_cmd_decay)

    p = sub.add_parser("saw-dump", help="list the walk-tree nodes for inspection")
    _add_graph_args(p)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    _add_run_args(p)
    p.set_defaults(handler=_cmd_saw_dump)

    return parser


# The exit code of each failure, tried in order: GraphFormatError is a
# SpinDecayError too.
_EXIT_CODES = (
    ((_UsageError, OSError, GraphFormatError), 1),
    ((InvalidParameterError, UniquenessError, NoThresholdError, ZeroWeightError), 2),
    ((BudgetExceededError, EnumerationCapError), 3),
    (SpinDecayError, 4),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    started = time.perf_counter()
    try:
        inputs, outputs = args.handler(args)
    except (_UsageError, OSError, SpinDecayError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(e, kinds))
    _emit(args.command, inputs, outputs, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
