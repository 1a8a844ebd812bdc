"""End-to-end command tests: JSON outputs, exit codes, determinism, swapping."""
from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spindecay
from spindecay import estimator, oracle
from spindecay.cli import build_parser, main
from spindecay.core import SpinSystem
from spindecay.errors import GraphFormatError, SpinDecayError
from spindecay.estimator import DecayPoint, MarginalBounds, PartitionEstimate, estimate_marginal
from spindecay.graphs import (
    Boundary,
    complete,
    cycle,
    dumps,
    from_edges,
    loads,
    path,
    random_regular,
    star,
)
from spindecay.oracle import exact_partition
from spindecay.uniqueness import FixedPointResult, ThresholdReport, gamma_threshold

from helpers import FLIP, SWAP_GRAPH, brute_log_z, hand_swapped, inverted, saw_tree


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, f"exit {rc}: {err}"
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "outputs", "wall_time_s"}
    return doc


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.json"
    f.write_text(dumps(cycle(4), system=SpinSystem(0.0, 1.0, 1.0)))
    return str(f)


@pytest.fixture
def k2_file(tmp_path):
    f = tmp_path / "k2.json"
    f.write_text(dumps(path(2)))
    return str(f)


def test_classify_output(capsys):
    doc = run_json(capsys, "classify", "--beta", "0.2", "--gamma", "4", "--lambda", "1")
    assert doc["outputs"]["kind"] == "anti-ferromagnetic"
    assert doc["outputs"]["antiferromagnetic"] is True
    assert doc["outputs"]["swapped"] is False
    # the system prints as an object, not as the array of a tuple
    assert doc["outputs"]["normalized"] == {"beta": 0.2, "gamma": 4.0, "lambda": 1.0}


def test_classify_swaps_reversed_couplings(capsys):
    doc = run_json(capsys, "classify", "--beta", "3", "--gamma", "0.2", "--lambda", "2")
    assert doc["outputs"]["swapped"] is True
    assert doc["outputs"]["normalized"]["beta"] == 0.2
    assert doc["outputs"]["normalized"]["lambda"] == 0.5


def test_uniqueness_command(capsys):
    doc = run_json(capsys, "uniqueness", "--beta", "0", "--gamma", "1",
                   "--lambda", "3.9", "--delta", "3")
    assert doc["outputs"]["unique"] is True
    assert doc["outputs"]["alpha"] is not None
    doc = run_json(capsys, "uniqueness", "--beta", "0", "--gamma", "1",
                   "--lambda", "4.1", "--delta", "3")
    assert doc["outputs"]["unique"] is False
    assert doc["outputs"]["violating"]["d"] == 2
    assert list(doc["outputs"]["violating"]) == list(FixedPointResult._fields)


def test_uniqueness_inf_reports_truncation_base(capsys):
    doc = run_json(capsys, "uniqueness", "--beta", "0.2", "--gamma", "4",
                   "--lambda", "1", "--delta", "inf")
    assert doc["outputs"]["unique"] is True
    assert doc["outputs"]["truncation_base"] == 14.0


def test_thresholds_command(capsys):
    doc = run_json(capsys, "thresholds", "--kind", "hardcore", "--gamma", "1",
                   "--delta", "3")
    assert doc["outputs"]["values"] == [4.0]
    assert list(doc["outputs"]) == list(ThresholdReport._fields)
    rc, _, err = run(capsys, "thresholds", "--kind", "hardcore", "--delta", "3")
    assert rc == 1 and "gamma" in err
    doc = run_json(capsys, "thresholds", "--kind", "gamma", "--beta", "0.1",
                   "--lambda", "1.2")
    assert doc["inputs"] == {"kind": "gamma", "beta": 0.1, "lambda": 1.2, "delta": math.inf}
    assert doc["outputs"]["values"] == [gamma_threshold(0.1, 1.2, math.inf).values[0]]
    doc = run_json(capsys, "thresholds", "--kind", "gamma", "--beta", "0.3",
                   "--lambda", "1", "--delta", "2")
    assert doc["outputs"]["values"] == [0.3]
    assert doc["outputs"]["extras"] == {"all_gamma_unique": True}
    rc, out, err = run(capsys, "thresholds", "--kind", "gamma", "--beta", "0.1")
    assert (rc, out, err) == (1, "", "error: --kind gamma needs --beta and --lambda\n")


@pytest.mark.parametrize("argv", [
    ("--kind", "hardcore", "--gamma", "1.00001"),
    ("--kind", "universal", "--beta", "0.1", "--gamma", "1.000001"),
    ("--kind", "hardcore", "--gamma", "2", "--delta", "1100"),
    ("--kind", "soft", "--beta", "0.9", "--gamma", "0.9", "--delta", "20"),
    ("--kind", "soft", "--beta", "0.1", "--gamma", "2", "--delta", "100000"),
])
def test_thresholds_far_or_touching_arities(capsys, argv):
    rc, out, err = run(capsys, "thresholds", *argv)
    assert rc == 0 and err == ""
    values = json.loads(out)["outputs"]["values"]  # one document
    assert values and values == sorted(values)


def _optional(values):
    return st.none() | values


def _with_delta(kind):
    # gamma near 1 makes one uniqueness check an arity scan up to delta (up to
    # 1/(gamma - 1) for delta = inf), and --kind gamma bisects over such
    # checks, so it takes moderate finite bounds only
    delta = (st.integers(2, 60).map(str) if kind == "gamma" else
             _optional(st.just("inf") | st.integers(-3, 10**30).map(str)))
    return st.tuples(st.just(kind), delta)


@given(kind_delta=st.sampled_from(["hardcore", "soft", "gamma", "universal"]).flatmap(_with_delta),
       beta=_optional(st.floats()), gamma=_optional(st.floats()), lam=_optional(st.floats()))
@settings(max_examples=300, deadline=None)
# roots past the float range, either way; a coupling product rounding to 1;
# powers past the float range; a window that peaks inside (beta > gamma);
# a beta whose 1/beta overflows, and one below which every probe of a capped
# bracket was unique
@example(kind_delta=("universal", None), beta=5e-324, gamma=1.25, lam=None)
@example(kind_delta=("soft", "710333980138651"), beta=1.5, gamma=5e-324, lam=None)
@example(kind_delta=("soft", "101800"), beta=1.7976931348623157e308, gamma=5e-324, lam=None)
@example(kind_delta=("soft", str(10**30)), beta=0.9999999999999999, gamma=1.0, lam=None)
@example(kind_delta=("hardcore", "3"), beta=None, gamma=1e200, lam=None)
@example(kind_delta=("soft", str(10**30)), beta=1.03, gamma=0.69, lam=None)
@example(kind_delta=("gamma", "60"), beta=5e-324, gamma=None, lam=1.0)
@example(kind_delta=("gamma", "60"), beta=1e-20, gamma=None, lam=1.0)
def test_thresholds_fail_with_one_line_and_an_exit_code(kind_delta, beta, gamma, lam):
    kind, delta = kind_delta
    argv = ["thresholds", "--kind", kind]
    for flag, value in (("--beta", beta), ("--gamma", gamma), ("--lambda", lam),
                        ("--delta", delta)):
        if value is not None:
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in {0, 1, 2, 3, 4}
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    if rc == 0:
        values = json.loads(out.getvalue())["outputs"]["values"]
        assert values == sorted(values)


def test_marginal_command(capsys, c4_file):
    doc = run_json(capsys, "marginal", "--graph", c4_file, "--vertex", "0",
                   "--eps", "0.001")
    out = doc["outputs"]
    assert out["p_lo"] == pytest.approx(2 / 7, abs=1e-3)
    assert out["p_hi"] - out["p_lo"] <= 1e-3
    assert list(out) == [*MarginalBounds._fields, "width", "swapped"]


def test_floats_print_shortest_and_round_trip(capsys, c4_file):
    argv = ["marginal", "--graph", c4_file, "--vertex", "0", "--eps", "0.001",
            "--beta", "0.3", "--gamma", "1.2", "--lambda", "0.8"]
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    texts = []
    doc = json.loads(out, parse_float=lambda text: texts.append(text) or float(text))
    assert texts and all(text == repr(float(text)) for text in texts)
    est = estimate_marginal(cycle(4), SpinSystem(0.3, 1.2, 0.8), 0, eps=0.001)
    outputs = doc["outputs"]
    for key in ("r_lo", "r_hi", "p_lo", "p_hi"):
        assert outputs[key] == getattr(est, key)
    assert outputs["width"] == est.p_hi - est.p_lo
    assert [doc["inputs"][k] for k in ("eps", "beta", "gamma", "lambda")] == [
        0.001, 0.3, 1.2, 0.8]
    # a blue-pinned root has ratio +inf at both ends
    rc, out, err = run(capsys, *argv, "--fix", "0=blue")
    assert rc == 0, err
    assert '"r_lo": Infinity' in out
    assert json.loads(out)["outputs"]["r_hi"] == math.inf


def test_marginal_is_deterministic(capsys, c4_file):
    docs = []
    for _ in range(2):
        doc = run_json(capsys, "marginal", "--graph", c4_file, "--vertex", "0")
        del doc["wall_time_s"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_marginal_fixed_depth_flag(capsys, c4_file):
    doc = run_json(capsys, "marginal", "--graph", c4_file, "--vertex", "0",
                   "--depth", "1")
    # both neighbours are frontier leaves of one child, ratio in [0, 1]; the
    # [0, +inf] frontier gave [0, 0.5], and the truth is 2/7
    assert doc["outputs"]["p_lo"] == 0.2
    assert doc["outputs"]["p_hi"] == 0.5


def test_partition_command_matches_enumeration(capsys, c4_file):
    doc = run_json(capsys, "partition", "--graph", c4_file, "--eps", "0.02")
    out = doc["outputs"]
    assert out["log_z"] == pytest.approx(math.log(7.0), abs=out["rel_error_bound"])
    assert len(out["chosen_config"]) == 4
    assert len(out["per_vertex_p"]) == 4
    assert out["log_z_lo"] <= math.log(7.0) <= out["log_z_hi"]
    assert out["rel_error_bound"] == math.expm1(0.5 * (out["log_z_hi"] - out["log_z_lo"]))
    assert out["expanded"] > 0
    assert set(out) - {"swapped"} <= set(PartitionEstimate._fields)
    assert all(isinstance(pair, list) for pair in out["per_vertex_p"])


@pytest.mark.parametrize("order, elim", [
    ("input", [0, 1, 2, 3]), ("reverse", [3, 2, 1, 0]), ("3,2,1,0", [3, 2, 1, 0]),
    ("1,3,0,2", [1, 3, 0, 2]),
])
def test_partition_order_flag(capsys, c4_file, order, elim):
    doc = run_json(capsys, "partition", "--graph", c4_file, "--eps", "0.02", "--order", order)
    out = doc["outputs"]
    assert doc["inputs"]["order"] == order
    assert [v for v, _ in out["per_vertex_p"]] == elim
    assert out["log_z_lo"] <= math.log(7.0) <= out["log_z_hi"]


@pytest.mark.parametrize("order, code", [("3,2,x,0", 1), ("", 1), ("3,2,1", 2), ("3,2,1,1", 2)])
def test_partition_order_flag_rejects_what_is_no_order(capsys, c4_file, order, code):
    # a malformed list is a usage error, a list that is no order a bad parameter
    rc, out, err = run(capsys, "partition", "--graph", c4_file, "--order", order)
    assert rc == code and out == "" and err.count("\n") == 1 and "order" in err


def test_partition_interval_translates_back_when_swapped(capsys, k2_file):
    s = SpinSystem(2.0, 0.4, 2.0)
    ref = exact_partition(path(2), s).log_z
    doc = run_json(capsys, "partition", "--graph", k2_file, "--eps", "0.1",
                   "--beta", "2.0", "--gamma", "0.4", "--lambda", "2.0")
    out = doc["outputs"]
    assert out["swapped"] is True
    assert out["log_z_lo"] <= ref <= out["log_z_hi"]
    assert out["log_z"] == pytest.approx(0.5 * (out["log_z_lo"] + out["log_z_hi"]), abs=1e-12)


def test_exact_command(capsys, c4_file):
    doc = run_json(capsys, "exact", "--graph", c4_file, "--vertex", "0")
    assert doc["outputs"]["z"] == pytest.approx(7.0, rel=1e-12)
    assert doc["outputs"]["p"] == pytest.approx(2 / 7, rel=1e-12)


def test_decay_command(capsys, c4_file):
    # a cutoff past n = 4 prints the points 0..4, the last of which holds
    # for every later cutoff
    doc = run_json(capsys, "decay", "--graph", c4_file, "--vertex", "0",
                   "--t-max", "5")
    assert all(list(p) == list(DecayPoint._fields) for p in doc["outputs"]["points"])
    assert [p["t"] for p in doc["outputs"]["points"]] == [0, 1, 2, 3, 4]
    assert doc["outputs"]["repeats_from"] == 4
    widths = [p["width"] for p in doc["outputs"]["points"]]
    assert widths[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
    for t_max in ("3", "4"):
        doc = run_json(capsys, "decay", "--graph", c4_file, "--vertex", "0", "--t-max", t_max)
        assert len(doc["outputs"]["points"]) == int(t_max) + 1
        assert doc["outputs"]["repeats_from"] is None


def test_a_decay_curve_past_n_prints_n_plus_one_points(capsys, tmp_path):
    # every cutoff from 30 to 100 000 repeats the point at 30: the document
    # says so in one key instead of printing them (13 MB)
    f = tmp_path / "rr30.json"
    f.write_text(dumps(random_regular(30, 3, seed=1)))
    rc, out, err = run(capsys, "decay", "--graph", str(f), "--vertex", "0", "--beta", "0",
                       "--gamma", "1", "--lambda", "1", "--t-max", "100000")
    assert (rc, err) == (0, "") and len(out) < 10_000
    doc = json.loads(out)
    assert doc["inputs"]["t_max"] == 100000 and doc["outputs"]["repeats_from"] == 30
    points = doc["outputs"]["points"]
    assert [p["t"] for p in points] == list(range(31))
    assert points[30]["width"] == 0.0  # at t = n the walk meets no frontier


def test_saw_dump_command(capsys, c4_file):
    doc = run_json(capsys, "saw-dump", "--graph", c4_file, "--vertex", "0",
                   "--depth", "2")
    root = saw_tree(doc["outputs"]["nodes"], 2)
    assert root["origin"] == 0
    assert len(root["children"]) == 2


def test_saw_dump_prints_trees_of_any_depth(capsys, tmp_path):
    f = tmp_path / "path3000.json"
    f.write_text(dumps(path(3000)))
    doc = run_json(capsys, "saw-dump", "--graph", str(f), "--vertex", "0", "--depth", "250")
    node, depth = saw_tree(doc["outputs"]["nodes"], 250), 0
    while node.get("children"):
        (node,) = node["children"]
        depth += 1
    assert (depth, node["origin"]) == (250, 250)
    # deeper than the recursion limit
    rc, out, err = run(capsys, "saw-dump", "--graph", str(f), "--vertex", "0",
                       "--depth", "1200")
    assert (rc, err) == (0, "")
    assert out.count('"origin"') == 1201 and out.rstrip().endswith("}")
    # one record per node, in linear size
    rc, out, err = run(capsys, "saw-dump", "--graph", str(f), "--vertex", "0",
                       "--depth", "1000")
    assert (rc, err) == (0, "")
    assert len(json.loads(out)["outputs"]["nodes"]) == 1001
    assert len(out.encode()) < 100 * 1001


def test_saw_dump_lists_every_node_within_the_budget(capsys, tmp_path):
    f = tmp_path / "rr64.json"
    f.write_text(dumps(random_regular(64, 3, seed=1)))
    doc = run_json(capsys, "saw-dump", "--graph", str(f), "--vertex", "0", "--depth", "12")
    assert len(doc["outputs"]["nodes"]) == 9758
    rc, out, err = run(capsys, "saw-dump", "--graph", str(f), "--vertex", "0",
                       "--depth", "14", "--budget", "100")
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "100 nodes" in err


@st.composite
def _small_graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edges(n, edges)


# any integers, drawn mostly where a dump can succeed
@given(g=_small_graphs(), vertex=st.integers(-1, 12) | st.integers(),
       depth=st.integers(-1, 14) | st.integers(), budget=st.integers(1, 10**4))
@settings(max_examples=150, deadline=None)
# the budget trips at 10**4 of the 64 472 nodes expanded above depth 6 in K12
@example(g=complete(12), vertex=0, depth=6, budget=10**4)
def test_saw_dump_fails_with_one_line_and_an_exit_code(g, vertex, depth, budget):
    with tempfile.TemporaryDirectory() as d:
        f = os.path.join(d, "g.json")
        with open(f, "w") as fh:
            fh.write(dumps(g))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["saw-dump", "--graph", f, f"--vertex={vertex}", f"--depth={depth}",
                       f"--budget={budget}"])
    assert rc in {0, 1, 2, 3, 4}
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    if rc == 0:
        nodes = json.loads(out.getvalue())["outputs"]["nodes"]
        assert (nodes[0]["depth"], nodes[0]["origin"]) == (0, vertex)
        assert all(b["depth"] <= a["depth"] + 1 for a, b in zip(nodes, nodes[1:]))


# any integer vertex, drawn mostly where a marginal can succeed
@given(g=_small_graphs(), vertex=st.integers(-1, 12) | st.integers(), cap=st.integers(1, 30),
       fixes=st.lists(st.tuples(st.integers(-1, 12), st.sampled_from(["blue", "green"])),
                      max_size=2))
@settings(max_examples=150, deadline=None)
def test_exact_fails_with_one_line_and_an_exit_code(g, vertex, cap, fixes):
    with tempfile.TemporaryDirectory() as d:
        f = os.path.join(d, "g.json")
        with open(f, "w") as fh:
            fh.write(dumps(g))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["exact", "--graph", f, "--beta", "0", "--gamma", "1", "--lambda", "1",
                       f"--vertex={vertex}", f"--cap={cap}",
                       *(f"--fix={v}={spin}" for v, spin in fixes)])
    assert rc in {0, 1, 2, 3, 4}
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    if rc == 0:
        truth = brute_log_z(g, SpinSystem(0.0, 1.0, 1.0), dict(fixes))
        assert json.loads(out.getvalue())["outputs"]["log_z"] == pytest.approx(truth, rel=1e-12)


def test_alphas_that_underflow_to_zero_exit_2(capsys, tmp_path):
    # gamma = 1e200 makes every arity's contraction maximum underflow to 0.0,
    # which no truncation base accepts
    rc, out, err = run(capsys, "uniqueness", "--beta", "0", "--gamma", "1e200",
                       "--lambda", "1", "--delta", "inf")
    assert (rc, out, err) == (2, "", "error: alpha must lie in (0, 1), got 0.0\n")
    f = tmp_path / "two.json"
    f.write_text(json.dumps({"n": 2, "edges": []}))
    rc, out, err = run(capsys, "marginal", "--graph", str(f), "--vertex", "0", "--mode",
                       "mbased", "--beta", "0", "--gamma", "1e200", "--lambda", "1e200")
    assert (rc, out, err) == (2, "", "error: alpha must lie in (0, 1), got 0.0\n")


_ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-300, 1e300])


# any parameters, any degree bound, either mode, any eps: each command exits
# with a code, and a failure is one line of stderr
@given(command=st.sampled_from(["uniqueness", "marginal", "partition", "decay"]),
       g=_small_graphs(8), beta=_ANY_FLOAT, gamma=_ANY_FLOAT, lam=_ANY_FLOAT,
       delta=st.integers(-2, 60).map(str) | st.just("inf"),
       mode=st.sampled_from(["depth", "mbased"]),
       eps=st.floats() | st.sampled_from([0.0, -0.1, math.nan, 1e-3, 0.1]),
       vertex=st.integers(-1, 8), t_max=st.integers(-1, 12))
@settings(max_examples=150, deadline=None)
# d*lam overflows where gamma**-d underflows: the envelope tail must still end the scan
@example(command="uniqueness", g=path(2), beta=0.0, gamma=1.7976931348623157e308,
         lam=1.7976931348623157e308, delta="inf", mode="depth", eps=0.1, vertex=0, t_max=1)
def test_commands_fail_with_one_line_and_an_exit_code(command, g, beta, gamma, lam, delta,
                                                      mode, eps, vertex, t_max):
    system = [f"--beta={beta!r}", f"--gamma={gamma!r}", f"--lambda={lam!r}"]
    with tempfile.TemporaryDirectory() as d:
        f = os.path.join(d, "g.json")
        with open(f, "w") as fh:
            fh.write(dumps(g))
        argv = {
            "uniqueness": ["uniqueness", *system, f"--delta={delta}"],
            "marginal": ["marginal", "--graph", f, *system, f"--vertex={vertex}",
                         f"--eps={eps!r}", f"--mode={mode}"],
            "partition": ["partition", "--graph", f, *system, f"--eps={eps!r}",
                          f"--mode={mode}"],
            "decay": ["decay", "--graph", f, *system, f"--vertex={vertex}",
                      f"--t-max={t_max}"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    assert rc in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    if not (rc == 1 and err.getvalue().startswith("usage:")):
        assert err.getvalue().count("\n") <= 1
    if rc == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["command"] == command


@given(beta=_ANY_FLOAT, gamma=_ANY_FLOAT, lam=_ANY_FLOAT)
@settings(max_examples=300, deadline=None)
# swapping inverts an activity past the float range; a coupling product past it
@example(beta=1e300, gamma=1e-300, lam=5e-324)
@example(beta=1e300, gamma=1e300, lam=1e-300)
def test_classify_fails_with_one_line_and_an_exit_code(beta, gamma, lam):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["classify", f"--beta={beta!r}", f"--gamma={gamma!r}", f"--lambda={lam!r}"])
    assert rc in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["command"] == "classify"
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def test_graph_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(path(2))))
    doc = run_json(capsys, "exact", "--graph", "-", "--beta", "0",
                   "--gamma", "1", "--lambda", "1")
    assert doc["outputs"]["z"] == pytest.approx(3.0, rel=1e-12)


def test_fix_flag_conditions_the_run(capsys, k2_file):
    doc = run_json(capsys, "exact", "--graph", k2_file, "--beta", "0",
                   "--gamma", "1", "--lambda", "1", "--fix", "1=blue")
    assert doc["outputs"]["z"] == pytest.approx(1.0, rel=1e-12)


def test_swapped_systems_translate_back(capsys, k2_file):
    s = SpinSystem(2.0, 0.4, 2.0)
    ref = exact_partition(path(2), s)
    doc = run_json(capsys, "exact", "--graph", k2_file, "--vertex", "0",
                   "--beta", "2.0", "--gamma", "0.4", "--lambda", "2.0")
    assert doc["outputs"]["swapped"] is True
    assert doc["outputs"]["log_z"] == pytest.approx(ref.log_z, rel=1e-12)
    # p(blue at 0) = (lam^2 beta + lam) / z
    expect = (4.0 * 2.0 + 2.0) / ref.z
    assert doc["outputs"]["p"] == pytest.approx(expect, rel=1e-12)

    doc2 = run_json(capsys, "marginal", "--graph", k2_file, "--vertex", "0",
                    "--beta", "2.0", "--gamma", "0.4", "--lambda", "2.0",
                    "--eps", "1e-9")
    assert doc2["outputs"]["p_lo"] == pytest.approx(expect, abs=1e-8)


@pytest.mark.parametrize("argv", [["classify"], ["uniqueness", "--delta", "3"]])
def test_missing_system_flags_are_usage_errors(capsys, argv):
    rc, out, err = run(capsys, *argv, "--gamma", "1")
    assert (rc, out) == (1, "")
    assert err == "error: missing --beta, --lambda (no value on the command line)\n"


def test_parser_defaults_are_the_library_defaults(capsys):
    parser = build_parser()
    args = parser.parse_args(["marginal", "--graph", "g.json", "--vertex", "0"])
    assert args.budget == estimator.DEFAULT_BUDGET == 5_000_000
    args = parser.parse_args(["exact", "--graph", "g.json"])
    assert args.cap == oracle.ENUMERATION_CAP == 25
    for command, line in (("partition", "walk-tree node budget (default 5000000)"),
                          ("exact", "2^cap entries (default 25)")):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        assert line in " ".join(capsys.readouterr().out.split())


def test_exit_code_usage_errors(capsys, k2_file, tmp_path):
    rc, _, _ = run(capsys, "marginal", "--graph", str(tmp_path / "no.json"),
                   "--vertex", "0", "--beta", "0", "--gamma", "1", "--lambda", "1")
    assert rc == 1
    rc, _, _ = run(capsys, "marginal", "--graph", k2_file, "--vertex", "0",
                   "--gamma", "1", "--lambda", "1")
    assert rc == 1  # beta missing everywhere
    rc, _, _ = run(capsys, "uniqueness", "--beta", "0", "--gamma", "1",
                   "--lambda", "1", "--delta", "x")
    assert rc == 1
    rc, _, _ = run(capsys, "exact", "--graph", k2_file, "--beta", "0",
                   "--gamma", "1", "--lambda", "1", "--fix", "1=purple")
    assert rc == 1
    rc, _, err = run(capsys, "exact", "--graph", k2_file, "--beta", "0",
                     "--gamma", "1", "--lambda", "1", "--fix", "1.5=blue")
    assert rc == 1 and err == "error: --fix: bad vertex '1.5'\n"
    rc, _, _ = run(capsys, "marginal", "--graph", k2_file, "--vertex", "0", "--beta",
                   "0", "--gamma", "1", "--lambda", "1", "--threads", "2")
    assert rc == 1  # no such flag: evaluation is sequential
    rc, _, _ = run(capsys, "marginal", "--graph", k2_file, "--vertex", "0", "--beta",
                   "0", "--gamma", "1", "--lambda", "1", "--mode", "auto")
    assert rc == 1  # the modes are depth and mbased
    for flag, value in (("--budget", "0"), ("--budget", "-5"), ("--budget", "x")):
        rc, _, err = run(capsys, "partition", "--graph", k2_file, "--beta", "0",
                         "--gamma", "1", "--lambda", "1", flag, value)
        assert rc == 1 and "positive integer" in err
    for value in ("0", "-1"):
        rc, _, err = run(capsys, "exact", "--graph", k2_file, "--beta", "0",
                         "--gamma", "1", "--lambda", "1", "--cap", value)
        assert rc == 1 and "positive integer" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc, _, err = run(capsys, "exact", "--graph", str(bad), "--beta", "0",
                     "--gamma", "1", "--lambda", "1")
    assert rc == 1 and "JSON" in err


def test_exit_code_precondition_errors(capsys, tmp_path, k2_file):
    f = tmp_path / "star.json"
    f.write_text(dumps(star(6)))
    rc, _, err = run(capsys, "marginal", "--graph", str(f), "--vertex", "0",
                     "--beta", "0", "--gamma", "1", "--lambda", "2")
    assert rc == 2 and "unique" in err
    rc, _, _ = run(capsys, "marginal", "--graph", k2_file, "--vertex", "0",
                   "--beta", "0.5", "--gamma", "2", "--lambda", "1")
    assert rc == 2  # degenerate coupling product
    rc, _, _ = run(capsys, "exact", "--graph", k2_file, "--beta", "0",
                   "--gamma", "1", "--lambda", "1",
                   "--fix", "0=blue", "--fix", "1=blue")
    assert rc == 2  # every configuration has zero weight
    rc, _, _ = run(capsys, "saw-dump", "--graph", k2_file, "--vertex", "0",
                   "--depth", "-1")
    assert rc == 2
    rc, _, _ = run(capsys, "thresholds", "--kind", "hardcore", "--gamma", "1",
                   "--delta", "inf")
    assert rc == 2
    # the fixed points of the small arities lie past 1e200; arity 298 fails
    rc, out, err = run(capsys, "marginal", "--graph", k2_file, "--vertex", "0", "--mode",
                       "mbased", "--beta", "0.1", "--gamma", "3.5", "--lambda", "1e300")
    assert (rc, out) == (2, "") and "at arity 298" in err


@pytest.mark.parametrize("n", [2, 3])
def test_partition_with_a_zero_weight_boundary(capsys, tmp_path, n):
    # 0 and 1 pinned blue at beta = 0: with n = 3 vertex 2 stays free
    f = tmp_path / "p.json"
    f.write_text(dumps(path(n)))
    rc, out, err = run(capsys, "partition", "--graph", str(f), "--beta", "0",
                       "--gamma", "1", "--lambda", "1", "--fix", "0=blue", "--fix", "1=blue")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "weight 0" in err


@pytest.mark.parametrize("command", [
    ["marginal", "--vertex", "2"],
    ["marginal", "--vertex", "2", "--depth", "3"],
    ["decay", "--vertex", "2"],
    ["saw-dump", "--vertex", "2"],
])
def test_zero_weight_boundaries_exit_2(capsys, tmp_path, command):
    # 0 and 1 pinned blue at beta = 0: no configuration has positive weight;
    # saw-dump takes no system flags, so the file carries the system
    f = tmp_path / "p3.json"
    f.write_text(dumps(path(3), system=SpinSystem(0.0, 1.0, 1.0)))
    rc, out, err = run(capsys, *command, "--graph", str(f), "--fix", "0=blue",
                       "--fix", "1=blue")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "weight 0" in err


def test_uniqueness_with_gamma_just_above_one(capsys):
    doc = run_json(capsys, "uniqueness", "--beta", "0.1", "--gamma", "1.000001",
                   "--lambda", "1", "--delta", "4")
    assert doc["outputs"]["checked_count"] == 3
    assert doc["outputs"]["tail_start"] is None


def test_uniqueness_reports_a_count_of_checked_arities(capsys):
    doc = run_json(capsys, "uniqueness", "--beta", "0", "--gamma", "1",
                   "--lambda", "1e-4", "--delta", "3000")
    assert doc["outputs"]["unique"] is True
    assert doc["outputs"]["checked_count"] == 2999
    assert "checked" not in doc["outputs"]


def test_other_library_failures_exit_4(capsys, monkeypatch):
    # the real triggers (e.g. a tail search that does not finish) take seconds
    def fail(args):
        raise SpinDecayError("search failed to terminate")

    monkeypatch.setattr("spindecay.cli._cmd_classify", fail)
    rc, out, err = run(capsys, "classify", "--beta", "0", "--gamma", "1", "--lambda", "1")
    assert rc == 4 and out == ""
    assert err == "error: search failed to terminate\n"


def test_exit_code_budget_errors(capsys, c4_file, tmp_path):
    rc, _, _ = run(capsys, "marginal", "--graph", c4_file, "--vertex", "0",
                   "--budget", "2")
    assert rc == 3
    f = tmp_path / "k6.json"
    f.write_text(dumps(complete(6)))
    rc, _, _ = run(capsys, "exact", "--graph", str(f), "--beta", "0",
                   "--gamma", "1", "--lambda", "1", "--cap", "3")
    assert rc == 3


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command, lines", [
    # a short document fails at the flush: the reader is gone before it
    ("classify", 0),
    # `saw-dump ... | head -1`: a document past the pipe's buffer fails
    # part-way through its write; 1001 records on a path take 85 kB, more
    # than a 64 kB pipe holds with the reader's one read of at most 8 kB
    ("saw-dump", 1),
])
def test_a_reader_that_leaves_early_gets_one_error_line(tmp_path, command, lines, unbuffered):
    if command == "saw-dump":
        f = tmp_path / "path3000.json"
        f.write_text(dumps(path(3000)))
        argv = [command, "--graph", str(f), "--vertex", "0", "--depth", "1000"]
    else:
        argv = [command, "--beta", "0", "--gamma", "1", "--lambda", "1"]
    src = str(Path(spindecay.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if unbuffered:  # every write goes straight to the pipe
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "spindecay.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    got = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert got == [b"{\n"] * lines
    # no traceback, and no "Exception ignored" from the flush at exit
    assert err == "error: [Errno 32] Broken pipe\n"


# ---------------------------------------------------------------------------
# beta > gamma: documents in the caller's labels equal the hand-swapped input
# translated back


def _swap_files(tmp_path, s, boundary):
    """--graph arguments for the caller's instance and for the hand-swapped one."""
    g2, s2, b2 = hand_swapped(SWAP_GRAPH, s, boundary)
    args = []
    for name, doc in (("caller", dumps(SWAP_GRAPH, boundary, s)), ("hand", dumps(g2, b2, s2))):
        f = tmp_path / f"{name}.json"
        f.write_text(doc)
        args.append(["--graph", str(f)])
    return args


@pytest.mark.parametrize("s, fixed", [
    (SpinSystem(1.2, 0.3, 1.25), None),
    (SpinSystem(1.0, 0.0, 1.25), {1: "blue"}),  # gamma = 0
    (SpinSystem(2.0, 0.4, 2.0), {4: "green", 9: "blue"}),
])
def test_swapped_documents_equal_the_hand_swapped_input(capsys, tmp_path, s, fixed):
    caller, hand = _swap_files(tmp_path, s, fixed and Boundary(fixed=fixed))

    def both(*argv):
        a = run_json(capsys, *argv, *caller)["outputs"]
        b = run_json(capsys, *argv, *hand)["outputs"]
        assert a["swapped"] is True and b["swapped"] is False
        return a, b

    for argv in (["marginal", "--vertex", "0", "--eps", "1e-4"],
                 ["marginal", "--vertex", "2", "--depth", "3"]):
        a, b = both(*argv)
        assert (a["p_lo"], a["p_hi"]) == (1.0 - b["p_hi"], 1.0 - b["p_lo"])
        assert (a["r_lo"], a["r_hi"]) == (inverted(b["r_hi"]), inverted(b["r_lo"]))
        assert a["width"] == a["p_hi"] - a["p_lo"]
        for key in ("expanded", "exact", "policy", "level"):
            assert a[key] == b[key]

    a, b = both("decay", "--vertex", "2", "--t-max", "5")
    for pa, pb in zip(a["points"], b["points"]):
        assert (pa["t"], pa["p_lo"], pa["p_hi"]) == (pb["t"], 1.0 - pb["p_hi"], 1.0 - pb["p_lo"])
        assert pa["width"] == pa["p_hi"] - pa["p_lo"]

    shift = sum(math.log(SWAP_GRAPH.activity(v, s)) for v in range(SWAP_GRAPH.n))
    a, b = both("partition", "--eps", "0.05")
    for key in ("log_z", "log_z_lo", "log_z_hi"):
        assert a[key] == pytest.approx(b[key] + shift, rel=1e-9)
    assert a["rel_error_bound"] == pytest.approx(b["rel_error_bound"], rel=1e-9)
    assert a["chosen_config"] == [FLIP[sp] for sp in b["chosen_config"]]
    assert a["expanded"] == b["expanded"] and a["mode"] == b["mode"]
    for (v, p), (w, q) in zip(a["per_vertex_p"], b["per_vertex_p"]):
        assert v == w and p == pytest.approx(q, rel=1e-9)

    a, b = both("exact", "--vertex", "0")
    assert a["log_z"] == pytest.approx(b["log_z"] + shift, rel=1e-9)
    assert a["z"] == pytest.approx(b["z"] * math.exp(shift), rel=1e-9)
    assert a["p"] == pytest.approx(1.0 - b["p"], rel=1e-9)
    assert a["ratio"] == pytest.approx(inverted(b["ratio"]), rel=1e-9)
    assert (a["n_free"], a["terms"]) == (b["n_free"], b["terms"])


@pytest.mark.parametrize("command", [
    ["marginal", "--vertex", "0"],
    ["marginal", "--vertex", "0", "--depth", "3"],
    ["partition"],
    ["exact"],
    ["decay", "--vertex", "0"],
    ["saw-dump", "--vertex", "0"],
])
def test_pinned_green_neighbours_at_gamma_zero_exit_2(capsys, tmp_path, command):
    # 1 and 3 are neighbours, and green-green edges weigh gamma = 0
    caller, _ = _swap_files(tmp_path, SpinSystem(1.0, 0.0, 1.25), None)
    rc, out, err = run(capsys, *command, *caller, "--fix", "1=green", "--fix", "3=green")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "weight" in err
    if command[0] != "exact":  # the oracle finds it in its own elimination
        assert "pinned green neighbours 1 and 3" in err


def test_exact_prints_the_oracles_z(capsys, tmp_path):
    # log Z = log(1 + 1e306) is about 704.6: finite, although past exp's old cut at 700
    f = tmp_path / "one.json"
    f.write_text('{"n": 1, "edges": [], "params": {"beta": 0, "gamma": 1, "lambda": 1e306}}')
    out = run_json(capsys, "exact", "--graph", str(f))["outputs"]
    assert 700.0 < out["log_z"] < 709.78 and out["z"] == pytest.approx(1e306, rel=1e-12)
    # two such vertices: log Z is about 1409, past the float range
    f.write_text('{"n": 2, "edges": [], "params": {"beta": 0, "gamma": 1, "lambda": 1e306}}')
    rc, text, err = run(capsys, "exact", "--graph", str(f))
    assert rc == 0, err
    assert '"z": Infinity' in text


_LONG = "1" + "0" * 400  # an integer no float can hold


@pytest.mark.parametrize("doc", [
    '{"n": 2, "edges": 5}',
    '{"n": 2, "edges": [5]}',
    '{"n": 2, "edges": [[0, 1]], "fixed": {"0": "blue"}, "S": ["a"]}',
    '{"n": 2, "edges": [[0, 1]], "params": {"beta": "x", "gamma": 1, "lambda": 1}}',
    '{"n": 2, "edges": [[0, 1]], "params": {"beta": null, "gamma": 1, "lambda": 1}}',
    '{"n": 2, "edges": [[0, 1]], "labels": 5}',
    '{"n": 2, "edges": [[0, 1]], "lambda_v": {"0": true}}',
    '{"n": 2, "edges": [[0, 1]], "params": {"beta": 0, "gamma": 1, "lambda": true}}',
    '{"n": 2, "edges": [[0, 1]], "fixed": {"1": "blue"}, "S": [1.7]}',
    '{"n": 2, "edges": [[0, 1]], "lambda_v": {"0": %s}}' % _LONG,
    '{"n": 2, "edges": [[0, 1]], "params": {"beta": 0, "gamma": 1, "lambda": %s}}' % _LONG,
    '{"n": 2, "edges": [], "lambda_v": {"0": 1%s}}' % ("0" * 5000),  # int digit limit
    "[" * 100_000 + "]" * 100_000,
], ids=lambda doc: doc[:60])
def test_malformed_documents_are_format_errors(capsys, tmp_path, doc):
    with pytest.raises(GraphFormatError):
        loads(doc)
    f = tmp_path / "bad.json"
    f.write_text(doc)
    rc, out, err = run(capsys, "exact", "--graph", str(f), "--beta", "0", "--gamma", "1",
                       "--lambda", "1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
