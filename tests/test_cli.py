from __future__ import annotations

import json

import pytest

from normaltori.cli import main
from normaltori.fixtures import make_klein, make_t0, make_t1
from normaltori.serialize import dumps, position_to_json


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, maker in (("t0", make_t0), ("t1", make_t1), ("klein", make_klein)):
        p = tmp_path / f"{name}.json"
        p.write_text(dumps(position_to_json(maker())), encoding="utf-8")
        paths[name] = p
    return tmp_path, paths


def test_graph_command_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["graph", "--rank", "3", "-o", str(out1)]) == 0
    assert main(["graph", "--rank", "3", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["kind"] == "sphere_graph" and obj["rank"] == 3


def test_random_graph_seeded(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["graph", "--rank", "3", "--random-seed", "7", "-o", str(out1)]) == 0
    assert main(["graph", "--rank", "3", "--random-seed", "7", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_validate_ok_and_failures(files, capsys):
    tmp, paths = files
    assert main(["validate", str(paths["t0"])]) == 0
    assert main(["validate", str(paths["klein"])]) == 1
    err = capsys.readouterr().err
    assert "monodromy nontrivial" in err


def test_normalize_pipeline(files, capsys):
    tmp, paths = files
    out = tmp / "norm.json"
    trace = tmp / "trace.log"
    assert main(["normalize", str(paths["t1"]), "-o", str(out), "--trace", str(trace)]) == 0
    assert "normalized in 1 moves" in capsys.readouterr().out
    assert "slide" in trace.read_text()
    obj = json.loads(out.read_text())
    assert obj["kind"] == "normal_torus"
    assert len(obj["position"]["circles"]) == 2


def test_compare_flip_equivalent(files, capsys):
    tmp, paths = files
    a = tmp / "decA.json"
    b = tmp / "decB.json"
    assert main(["decorate", str(paths["t0"]), "-o", str(a), "--base-side", "A"]) == 0
    assert main(["decorate", str(paths["t0"]), "-o", str(b), "--base-side", "B"]) == 0
    assert main(["compare", str(a), str(b)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_compare_distinct_exit_code(files, tmp_path, capsys):
    tmp, paths = files
    from normaltori.fixtures import make_t2
    from normaltori.serialize import dumps as d, position_to_json as pj

    t2 = tmp_path / "t2.json"
    t2.write_text(d(pj(make_t2())), encoding="utf-8")
    assert main(["compare", str(paths["t0"]), str(t2)]) == 3
    assert "DISTINCT" in capsys.readouterr().out


def test_compare_no_reversal_flag(files, capsys, tmp_path):
    tmp, paths = files
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["decorate", str(paths["t0"]), "-o", str(a), "--base-side", "A"]) == 0
    assert main(["decorate", str(paths["t0"]), "-o", str(b), "--base-side", "B"]) == 0
    assert main(["compare", str(a), str(b), "--no-reversal"]) == 0


def test_axis_word_command(files, capsys):
    tmp, paths = files
    assert main(["axis-word", str(paths["t0"])]) == 0
    assert capsys.readouterr().out.strip() == "x1"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--rank", "2", "--bogus"])
    assert exc.value.code == 2


def test_missing_file_is_diagnostic(capsys, tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_klein_decorate_fails(files, capsys):
    tmp, paths = files
    assert main(["decorate", str(paths["klein"])]) == 1


@pytest.mark.parametrize("command", ["perturb", "confluence", "minimality"])
def test_oracle_commands_validate_input(files, capsys, command):
    tmp, paths = files
    assert main([command, str(paths["klein"])]) == 1
    assert capsys.readouterr().err == "error: monodromy nontrivial on cycle (F0,F1)\n"


def test_perturb_and_confluence(files, capsys, tmp_path):
    tmp, paths = files
    out = tmp_path / "pert.json"
    assert main(["perturb", str(paths["t0"]), "--seed", "3", "--count", "2", "-o", str(out)]) == 0
    assert main(["confluence", str(out)]) == 0
    assert "confluent: True" in capsys.readouterr().out


def test_minimality_command(files, capsys, tmp_path):
    tmp, paths = files
    rep = tmp_path / "rep.json"
    assert main(
        ["minimality", str(paths["t0"]), "--trials", "8", "--depth", "3", "-o", str(rep)]
    ) == 0
    assert json.loads(rep.read_text())["failures"] == []


def test_fuzz_command(capsys):
    assert main(["fuzz", "--trials", "20", "--rank", "2", "--seed", "5"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_export_dot(files, capsys):
    tmp, paths = files
    assert main(["export-dot", str(paths["t0"])]) == 0
    assert "piece_graph" in capsys.readouterr().out


def test_output_not_written_on_invalid_input(files, tmp_path, capsys):
    tmp, paths = files
    out = tmp_path / "never.json"
    assert main(["normalize", str(paths["klein"]), "-o", str(out)]) == 1
    assert not out.exists()


def test_normalize_byte_identical(files, tmp_path):
    tmp, paths = files
    out1 = tmp_path / "n1.json"
    out2 = tmp_path / "n2.json"
    assert main(["normalize", str(paths["t1"]), "-o", str(out1)]) == 0
    assert main(["normalize", str(paths["t1"]), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
