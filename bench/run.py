"""Benchmark of spindecay: one workload per process.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from its ``src``
directory.  Set-up (a fresh import, input generation and warm-up) is done
SETUP_REPEATS times and its median is ``setup_s``.  Whole rounds of the
workload's operations then run until S seconds have passed; every output is
checked afterwards.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  End-to-end times are scaled to a nominal host speed measured
between rounds (see hostspeed.py); the unscaled ones go to stderr.

A traced run spends half its time untraced and half with timing wrappers
around the package's public functions (see tracing.py), reports the ratio of
the two throughputs as ``trace.overhead`` and writes its spans to
``bench/out``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
LIBRARY = ("core", "graphs", "uniqueness", "estimator", "oracle")

sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_import(with_cli):
    """Import spindecay from the checkout anew, so memo caches start empty."""
    for name in [m for m in sys.modules if m == "spindecay" or m.startswith("spindecay.")]:
        del sys.modules[name]
    names = LIBRARY + (("cli",) if with_cli else ())
    lib = SimpleNamespace(**{m: importlib.import_module("spindecay." + m) for m in names})
    where = Path(lib.core.__file__).resolve().parent
    if where != SRC / "spindecay":
        raise SystemExit(f"error: imported spindecay from {where}, not from {SRC}")
    lib.memos = tracing.Memos(lib.uniqueness)
    return lib


def make_workload(name):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(str(SRC), str(OUT))
    return cls()


def set_up(name, seed, tracer):
    """SETUP_REPEATS fresh set-ups; returns the last workload, its modules,
    the median time and the host's speed over the set-ups."""
    times = []
    probe = hostspeed.Probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = fresh_import(with_cli=name == "cli")
        if tracer is not None:
            tracer.reset()
            tracer.install(lib.memos)
        wl = make_workload(name)
        wl.setup(lib, seed)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        probe.run(times[-1])
    return wl, lib, statistics.median(times), probe.speed()


def timed_rounds(wl, seconds):
    """Run whole rounds until `seconds` have passed, probing the host's
    speed after each round (see hostspeed.py).

    Returns a namespace: ``times`` (seconds per completed operation),
    ``results`` ((key, output) pairs), ``failures``, ``busy`` (seconds
    inside rounds), ``per_round`` (a round's seconds per operation and the
    host's speed measured right after it, one pair per round) and ``speed``
    (the host's speed over the run)."""
    times, results, failures, per_round = [], [], [], []
    probe = hostspeed.Probe()
    busy = 0.0
    start = time.perf_counter()
    while True:
        r0, done = time.perf_counter(), 0
        for key, op in wl.round():
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as e:  # a failed operation is counted, not fatal
                failures.append((key, f"{type(e).__name__}: {e}"))
                continue
            times.append(time.perf_counter() - t0)
            results.append((key, out))
            done += 1
        spent = time.perf_counter() - r0
        busy += spent
        speed = probe.run(hostspeed.PROBE_SHARE * spent)
        if done:
            per_round.append((spent / done, speed))
        if time.perf_counter() - start >= seconds:
            return SimpleNamespace(times=times, results=results, failures=failures, busy=busy,
                                   per_round=per_round, speed=probe.speed())


def check_outputs(wl, results):
    """First output per key, after checking determinism and every property."""
    first, problems = {}, []
    for key, out in results:
        if key not in first:
            first[key] = out
        elif wl.comparable(out) != wl.comparable(first[key]):
            problems.append(f"{key}: output differs between repeats")
    try:
        for key, out in first.items():
            wl.check(key, out)
        wl.check_all(first)
    except workloads.CheckError as e:
        problems.append(str(e))
    return first, problems


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(correct, attempted, failed, values, wanted):
    missing = [m["name"] for m in wanted if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in wanted})
    if missing or extra:
        raise SystemExit(f"error: metrics missing {missing}, not declared {extra}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def write_raw(name, seed, trace, setup_s, runs, unscaled=None):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, "setup_s": setup_s,
                   "unscaled_metrics": unscaled,
                   "host_speed": [m.speed for m in runs],
                   "op_seconds": [t for m in runs for t in m.times],
                   "rounds": [r for m in runs for r in m.per_round],
                   "keys": [repr(k) for m in runs for k, _ in m.results],
                   "failures": [f for m in runs for f in m.failures]}, fh)


def run_untraced(name, seed, seconds):
    wl, _, setup_s, setup_speed = set_up(name, seed, None)
    m = timed_rounds(wl, seconds)
    rss = peak_rss_mb(name)
    # A round mixes operations of very different cost (a depth-16 walk and
    # a depth-12 one, a classify and an exact), so the median of single
    # operations would jump between cost groups from run to run; the median
    # over rounds of a round's seconds per operation does not.
    unscaled = {
        "ops_per_s": len(m.times) / m.busy,
        "op_median_s": statistics.median(t for t, _ in m.per_round),
        "setup_s": setup_s,
    }
    print(f"unscaled: {json.dumps(unscaled)}, host speed {m.speed:.4f} "
          f"(set-up {setup_speed:.4f})", file=sys.stderr)
    write_raw(name, seed, 0, setup_s, [m], unscaled)
    _, problems = check_outputs(wl, m.results)
    # every timing as on the nominal host (hostspeed.py); each round by the
    # probe that followed it
    values = {
        "ops_per_s": unscaled["ops_per_s"] / m.speed,
        "op_median_s": statistics.median(t * v for t, v in m.per_round),
        "setup_s": setup_s * setup_speed,
        "peak_rss_mb": rss,
    }
    return problems, len(m.times) + len(m.failures), len(m.failures), values


def run_traced(name, seed, seconds):
    tracer = tracing.Tracer()
    wl, lib, setup_s, _ = set_up(name, seed, tracer)
    generate_s = tracing.outermost_seconds(tracer.spans, "graphs")
    plain = timed_rounds(wl, seconds / 2)

    tracer.reset()
    tracer.install(lib.memos)
    tracer.mark_caches()
    traced = timed_rounds(wl, seconds / 2)
    tracer.uninstall()
    ops = len(traced.times)
    extra = {"cli.startup_s": 0.0, "cli.stdout_bytes": 0.0}
    if name == "cli":
        # the children are opaque to the wrappers: trace one round in-process
        tracer.reset()
        tracer.install(lib.memos)
        tracer.mark_caches()
        sizes = wl.run_in_process()
        tracer.uninstall()
        ops = len(sizes)
        extra = {"cli.startup_s": wl.startup_seconds(),
                 "cli.stdout_bytes": statistics.fmean(sizes)}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{name}-seed{seed}.spans.jsonl")
    write_raw(name, seed, 1, setup_s, [plain, traced])

    first, problems = check_outputs(wl, plain.results + traced.results)
    values = tracing.layer_metrics(tracer.spans, ops, tracer)
    values.update(extra)
    values.update(wl.layer_extras({k: first[k] for k, _ in traced.results}))
    values["graphs.generate_s"] = generate_s
    values["host.speed"] = traced.speed

    def rate(m):
        return len(m.times) / m.busy / m.speed

    values["trace.overhead"] = rate(traced) / rate(plain)
    attempted = sum(len(m.times) + len(m.failures) for m in (plain, traced))
    return problems, attempted, len(plain.failures) + len(traced.failures), values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "spindecay" / "__init__.py").is_file():
        print(f"error: no spindecay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench_spec = spec()
    if args.trace:
        problems, attempted, failed, values = run_traced(args.workload, args.seed, args.seconds)
        wanted = bench_spec["per_layer"]
    else:
        problems, attempted, failed, values = run_untraced(args.workload, args.seed, args.seconds)
        wanted = bench_spec["end_to_end"]
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    emit(not problems, attempted, failed, values, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
