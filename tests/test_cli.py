from __future__ import annotations

import json

import pytest
from conftest import make_u_tubes

from normaltori.cli import build_parser, main
from normaltori.fixtures import make_klein, make_t0, make_t1, make_t2, theta_graph
from normaltori.graphs import validate_graph
from normaltori.normal_graph import to_normal_torus
from normaltori.position import validate_position
from normaltori.serialize import (
    dumps,
    graph_to_json,
    load_any,
    normal_torus_to_dot,
    normal_torus_to_json,
    position_to_json,
)


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


def test_axis_word_command(files, capsys):
    tmp, paths = files
    assert main(["axis-word", str(paths["t0"])]) == 0
    assert capsys.readouterr().out.strip() == "x1"


def test_circle_id_with_a_non_ascii_digit(files, tmp_path):
    tmp, paths = files
    text = paths["t1"].read_text(encoding="utf-8").replace('"c1"', '"c\u00b2"')
    assert "c1" not in text
    src = tmp_path / "t1.json"
    src.write_text(text, encoding="utf-8")
    assert main(["validate", str(src)]) == 0
    assert main(["normalize", str(src), "-o", str(tmp_path / "nt.json")]) == 0
    assert main(["perturb", str(src), "--seed", "3", "--count", "2", "-o", str(tmp_path / "p.json")]) == 0


def test_readme_commands_parse():
    import shlex
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("normaltori ")]
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv[1:])


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


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe{}", "cannot read {path}: "), (b"[" * 200_000 + b"]" * 200_000, "not valid JSON: ")],
    ids=["not UTF-8", "nested too deep"],
)
def test_undecodable_file_is_diagnostic(tmp_path, capsys, content, message):
    """A file that is not UTF-8, or nests deeper than the parser recurses, ends in one error line."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1


def test_parser_reuse_keeps_no_state(files, capsys):
    """Calls in one process share one parser; no option value carries over to the next call."""
    tmp, paths = files
    assert build_parser() is build_parser()
    trace = tmp / "trace.log"
    assert main(["normalize", str(paths["t1"]), "-o", str(tmp / "norm.json"), "--trace", str(trace)]) == 0
    trace.unlink()
    capsys.readouterr()
    assert main(["normalize", str(paths["t1"])]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out.split("normalized in")[0])["kind"] == "normal_torus"
    assert "slide" in err and not trace.exists()
    sides = []
    for flags in (["--base-side", "B"], []):
        out = tmp / "dec.json"
        assert main(["decorate", str(paths["t0"]), "-o", str(out), *flags]) == 0
        sides.append(json.loads(out.read_text())["base"]["side"])
    assert sides == ["B", "A"]


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--rank", "3", "-o", "{bad}"],
        ["normalize", "t1", "-o", "{bad}"],
        ["normalize", "t1", "--trace", "{bad}"],
        ["normalize", "t1", "-o", "{good}", "--trace", "{bad}"],
        ["decorate", "t0", "-o", "{bad}"],
        ["perturb", "t0", "-o", "{bad}"],
        ["export-dot", "t0", "-o", "{bad}"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a not in ("t0", "t1", "{bad}", "{good}")),
)
def test_write_failure_is_diagnostic(files, capsys, argv):
    """An output path in a missing directory ends in one error line, not a traceback.

    An exit 1 writes no ``-o`` file, even when only the ``--trace`` path is bad.
    """
    tmp, paths = files
    bad = str(tmp / "no" / "such" / "dir" / "out")
    good = tmp / "out.json"
    fill = {"t0": str(paths["t0"]), "t1": str(paths["t1"]), "{bad}": bad, "{good}": str(good)}
    assert main([fill.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1
    assert not good.exists()


def test_klein_decorate_fails(files, capsys):
    tmp, paths = files
    assert main(["decorate", str(paths["klein"])]) == 1


@pytest.mark.parametrize("command", ["perturb", "confluence", "minimality", "axis-word", "decorate"])
def test_oracle_commands_validate_input(files, capsys, command):
    tmp, paths = files
    assert main([command, str(paths["klein"])]) == 1
    assert capsys.readouterr().err == "error: monodromy nontrivial on cycle (F0,F1)\n"


_COMMANDS = ["validate", "decorate", "compare", "confluence", "export-dot"]


@pytest.mark.parametrize(
    "command, closed",
    [(c, False) for c in _COMMANDS] + [(c, True) for c in _COMMANDS],
    ids=_COMMANDS + [f"closed-{c}" for c in _COMMANDS],
)
def test_position_without_pieces_is_diagnostic(tmp_path, capsys, command, closed):
    """No pieces and no circles, or one closed genus-1 piece T: one error line.

    Decorating the first raised from ``min()``, and ``export-dot`` drew both.
    """
    from normaltori.fixtures import theta_graph
    from normaltori.position import Piece, RegionTree, position_of

    g = theta_graph()
    trees = {s: RegionTree(s, {f"q{i}"}, {}) for i, s in enumerate(g.sphere_edges)}
    pieces = {"T": Piece("T", "p0", 1, [], {he: "A" for he in g.half_edges_at("p0")})} if closed else {}
    path = tmp_path / "empty.json"
    path.write_text(dumps(position_to_json(position_of(g, pieces, {}, trees, {}))), encoding="utf-8")
    argv = [command, str(path)] + ([str(path)] if command == "compare" else [])
    assert main(argv) == 1
    out = capsys.readouterr()
    # validate lists problems bare; the other commands prefix their one error
    prefix = "" if command == "validate" else "error: "
    assert out.err == prefix + ("piece T is closed (no boundary)" if closed else "position has no pieces") + "\n"
    assert out.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["perturb", "t0", "--count", "{n}"],
        ["minimality", "t0", "--trials", "{n}"],
        ["minimality", "t0", "--depth", "{n}"],
        ["fuzz", "--trials", "{n}"],
        ["fuzz", "--trials", "2", "--depth", "{n}"],
    ],
)
def test_negative_counts_are_usage_errors(files, capsys, tmp_path, argv):
    tmp, paths = files
    fill = {"t0": str(paths["t0"]), "{n}": "-2"}
    with pytest.raises(SystemExit) as exc:
        main([fill.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert "must be at least 0, got -2" in capsys.readouterr().err
    fill["{n}"] = "0"
    assert main([fill.get(a, a) for a in argv] + ["-o", str(tmp_path / "out.json")]) == 0


def test_negative_confluence_depth_is_usage_error(files, capsys):
    tmp, paths = files
    with pytest.raises(SystemExit) as exc:
        main(["confluence", str(paths["t1"]), "--depth", "-1"])
    assert exc.value.code == 2
    assert "must be at least 0, got -1" in capsys.readouterr().err
    assert main(["confluence", str(paths["t1"]), "--depth", "0"]) == 1
    assert capsys.readouterr().err == "error: state space too large: 3 circles exceeds bound 0\n"


def test_perturb_and_confluence(files, capsys, tmp_path):
    tmp, paths = files
    out = tmp_path / "pert.json"
    assert main(["perturb", str(paths["t0"]), "--seed", "3", "--count", "2", "-o", str(out)]) == 0
    assert main(["confluence", str(out)]) == 0
    assert "confluent: True" in capsys.readouterr().out


def test_confluence_of_a_stuck_position(tmp_path, capsys):
    """The u-tubes' searches end in two stuck states: not confluent, exit 1."""
    path = tmp_path / "u-tubes.json"
    path.write_text(dumps(position_to_json(make_u_tubes())), encoding="utf-8")
    assert main(["confluence", str(path)]) == 1
    assert capsys.readouterr().out == "confluent: False; outcomes: 0; stuck: 2; states explored: 3\n"


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


def test_stray_transport_bit_rejected(tmp_path, capsys):
    """A ``side_transport`` bit of a circle the file lacks fails ``validate``, and ``normalize`` writes nothing."""
    obj = position_to_json(make_t0())
    obj["side_transport"]["c9"] = False
    path, out = tmp_path / "stray.json", tmp_path / "out.json"
    path.write_text(dumps(obj), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "side transport bit of unknown circle c9\n"
    assert main(["normalize", str(path), "-o", str(out)]) == 1
    assert not out.exists()


def test_uncrossed_entry_at_a_half_edge_the_graph_lacks_is_named(tmp_path, capsys):
    """A slot and an uncrossed entry at the same sphere end the graph lacks are named by the end, never a traceback."""
    obj = position_to_json(make_t0())
    piece = obj["pieces"][0]
    piece["boundary"][0]["half_edge"] = {"sphere": "s9", "end": 0}
    piece["uncrossed"].append({"half_edge": {"sphere": "s9", "end": 0}, "side": "A"})
    problems = validate_position(load_any(dumps(obj))[1])
    assert "piece F0 has uncrossed entry at crossed s9@0" in problems
    path = tmp_path / "foreign-end.json"
    path.write_text(dumps(obj), encoding="utf-8")
    assert main(["decorate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: " + "; ".join(problems) + "\n"


def test_export_dot(files, capsys):
    tmp, paths = files
    assert main(["export-dot", str(paths["t0"])]) == 0
    assert "piece_graph" in capsys.readouterr().out


def _rank_three(g):
    g["rank"] = 3


def _unknown_pants(g):
    g["edges"][0]["ends"][0]["p"] = "p9"


@pytest.mark.parametrize("edit", [_rank_three, _unknown_pants], ids=["rank 3", "unknown pants"])
def test_export_dot_rejects_an_invalid_graph(tmp_path, capsys, edit):
    """``export-dot`` draws a sphere graph only when ``validate`` accepts it, and writes no ``-o`` file otherwise."""
    obj = graph_to_json(theta_graph())
    edit(obj)
    path = tmp_path / "theta.json"
    path.write_text(dumps(obj), encoding="utf-8")
    problems = validate_graph(load_any(path.read_text(encoding="utf-8"))[1])
    assert problems
    out = tmp_path / "theta.dot"
    assert main(["export-dot", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: " + "; ".join(problems) + "\n"
    assert not out.exists()
    assert main(["validate", str(path)]) == 1


def test_normal_torus_file_reads_like_its_position(tmp_path, capsys):
    """``decorate``, ``axis-word`` and ``export-dot`` on a normal_torus file give what its position file gives.

    ``export-dot`` draws the decorated graph of a normal torus, not the position.
    """
    t = make_t2()
    nt = to_normal_torus(t)
    files = {"position": tmp_path / "t2.json", "normal_torus": tmp_path / "t2-nt.json"}
    files["position"].write_text(dumps(position_to_json(t)), encoding="utf-8")
    files["normal_torus"].write_text(dumps(normal_torus_to_json(nt)), encoding="utf-8")
    outputs = {}
    for kind, path in files.items():
        decorated = tmp_path / f"{kind}-dec.json"
        runs = [["decorate", str(path), "-o", str(decorated)], ["axis-word", str(path)]]
        outputs[kind] = [(main(argv), capsys.readouterr()) for argv in runs] + [decorated.read_bytes()]
    assert outputs["normal_torus"] == outputs["position"]
    assert outputs["position"][0][0] == outputs["position"][1][0] == 0
    assert main(["export-dot", str(files["normal_torus"])]) == 0
    assert capsys.readouterr().out == normal_torus_to_dot(nt)


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


@pytest.mark.parametrize("command", ["decorate", "export-dot"])
@pytest.mark.parametrize("edit", ["rename node0", "delete", "rename sphere", "rename leaf node"])
def test_malformed_normal_torus_file_rejected(tmp_path, capsys, command, edit):
    from normaltori.graphs import build_standard
    from normaltori.normal_graph import to_normal_torus
    from normaltori.oracle import random_normal_torus
    from normaltori.serialize import normal_torus_to_json

    obj = normal_torus_to_json(to_normal_torus(random_normal_torus(build_standard(3), 1, 6)))
    crossing = obj["crossings"][0]
    if edit == "delete":
        obj["crossings"].remove(crossing)
        want = f'crossings[0].id: has "{obj["crossings"][0]["id"]}", the position gives "{crossing["id"]}"'
    elif edit == "rename sphere":
        want = f'crossings[0].sphere: has "s99", the position gives "{crossing["sphere"]}"'
        crossing["sphere"] = "s99"
    elif edit == "rename leaf node":
        leaf = obj["leaves"][0]
        want = f'leaves[0].node: has "ZZ", the position gives "{leaf["node"]}"'
        leaf["node"] = "ZZ"
    else:
        want = f'crossings[0].node0: has "ZZ", the position gives "{crossing["node0"]}"'
        crossing["node0"] = "ZZ"
    src, out = tmp_path / "nt.json", tmp_path / "out"
    src.write_text(dumps(obj), encoding="utf-8")
    assert main([command, str(src), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: malformed normal_torus: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize("edit", ["drop transport bit", "rename piece"])
def test_normal_torus_file_with_stray_position_rejected(tmp_path, capsys, edit):
    from normaltori.graphs import build_standard
    from normaltori.normal_graph import to_normal_torus
    from normaltori.oracle import random_normal_torus
    from normaltori.serialize import normal_torus_to_json

    obj = normal_torus_to_json(to_normal_torus(random_normal_torus(build_standard(3), 1, 6)))
    position = obj["position"]
    if edit == "drop transport bit":
        cid = min(position["side_transport"])
        del position["side_transport"][cid]
        want = f"error: circle {cid} missing side transport bit\n"
    else:
        piece = position["pieces"][0]
        nxt = position["pieces"][1]["id"]
        want = f'error: malformed normal_torus: nodes[0].id: has "{piece["id"]}", the position gives "{nxt}"\n'
        piece["id"] = "QQ"
    src, out = tmp_path / "nt.json", tmp_path / "out"
    src.write_text(dumps(obj), encoding="utf-8")
    assert main(["decorate", str(src), "-o", str(out)]) == 1
    assert capsys.readouterr().err == want
    assert not out.exists()
