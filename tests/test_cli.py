"""End-to-end command tests: JSON outputs, exit codes, determinism, swapping."""
from __future__ import annotations

import io
import json
import math

import pytest

from spindecay.cli import main
from spindecay.core import SpinSystem
from spindecay.graphs import cycle, dumps, path, star
from spindecay.oracle import exact_partition


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


def test_uniqueness_inf_reports_truncation_base(capsys):
    doc = run_json(capsys, "uniqueness", "--beta", "0.2", "--gamma", "4",
                   "--lambda", "1", "--delta", "inf")
    assert doc["outputs"]["unique"] is True
    assert doc["outputs"]["truncation_base"] == 14.0


def test_thresholds_command(capsys):
    doc = run_json(capsys, "thresholds", "--kind", "hardcore", "--gamma", "1",
                   "--delta", "3")
    assert doc["outputs"]["values"] == [4.0]
    rc, _, err = run(capsys, "thresholds", "--kind", "hardcore", "--delta", "3")
    assert rc == 1 and "gamma" in err


def test_marginal_command(capsys, c4_file):
    doc = run_json(capsys, "marginal", "--graph", c4_file, "--vertex", "0",
                   "--eps", "0.001")
    out = doc["outputs"]
    assert out["p_lo"] == pytest.approx(2 / 7, abs=1e-3)
    assert out["p_hi"] - out["p_lo"] <= 1e-3


def test_float_rendering_round_trips():
    from spindecay.cli import _float_str

    for x in (1 / 3, 2 / 7, 1e-300, 6.02e23, -0.1):
        assert float(_float_str(x)) == x
    assert _float_str(math.inf) == "Infinity"
    assert json.loads(f'[{_float_str(math.inf)}]') == [math.inf]


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
    assert doc["outputs"]["p_lo"] == 0.0
    assert doc["outputs"]["p_hi"] == 0.5


def test_partition_command_matches_enumeration(capsys, c4_file):
    doc = run_json(capsys, "partition", "--graph", c4_file, "--eps", "0.02")
    out = doc["outputs"]
    assert out["log_z"] == pytest.approx(math.log(7.0), abs=out["rel_error_bound"])
    assert len(out["chosen_config"]) == 4
    assert len(out["per_vertex_p"]) == 4


def test_exact_command(capsys, c4_file):
    doc = run_json(capsys, "exact", "--graph", c4_file, "--vertex", "0")
    assert doc["outputs"]["z"] == pytest.approx(7.0, rel=1e-12)
    assert doc["outputs"]["p"] == pytest.approx(2 / 7, rel=1e-12)


def test_decay_command(capsys, c4_file):
    doc = run_json(capsys, "decay", "--graph", c4_file, "--vertex", "0",
                   "--t-max", "5")
    widths = [p["width"] for p in doc["outputs"]["points"]]
    assert widths[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))


def test_saw_dump_command(capsys, c4_file):
    doc = run_json(capsys, "saw-dump", "--graph", c4_file, "--vertex", "0",
                   "--depth", "2")
    assert doc["outputs"]["origin"] == 0
    assert len(doc["outputs"]["children"]) == 2


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
    rc, _, _ = run(capsys, "marginal", "--graph", k2_file, "--vertex", "0", "--beta",
                   "0", "--gamma", "1", "--lambda", "1", "--threads", "2")
    assert rc == 1  # no such flag: evaluation is sequential
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
    rc, _, _ = run(capsys, "thresholds", "--kind", "hardcore", "--gamma", "1",
                   "--delta", "inf")
    assert rc == 2


def test_exit_code_budget_errors(capsys, c4_file, tmp_path):
    rc, _, _ = run(capsys, "marginal", "--graph", c4_file, "--vertex", "0",
                   "--budget", "2")
    assert rc == 3
    f = tmp_path / "p6.json"
    f.write_text(dumps(path(6)))
    rc, _, _ = run(capsys, "exact", "--graph", str(f), "--beta", "0",
                   "--gamma", "1", "--lambda", "1", "--cap", "3")
    assert rc == 3
