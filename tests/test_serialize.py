from __future__ import annotations

import json
import re

import pytest
from conftest import recorded

from normaltori.cli import main
from normaltori.fixtures import make_t0, make_t1, make_t2
from normaltori.graphs import build_standard, random_cubic
from normaltori.moves import normalize
from normaltori.normal_graph import canonicalize, decorate, to_normal_torus
from normaltori.oracle import minimality_experiment, random_normal_torus
from normaltori.position import validate_position
from normaltori import serialize
from normaltori.serialize import (
    SchemaError,
    decorated_from_json,
    decorated_to_json,
    dumps,
    graph_from_json,
    graph_to_json,
    load_any,
    normal_torus_from_json,
    normal_torus_to_json,
    position_from_json,
    position_to_json,
)


def test_graph_round_trip():
    for g in (build_standard(2), build_standard(4), random_cubic(3, 5)):
        assert graph_from_json(graph_to_json(g)) == g


def test_graph_schema_shape():
    obj = graph_to_json(build_standard(2))
    assert obj["format"] == 1
    assert obj["rank"] == 2
    assert {e["id"] for e in obj["edges"]} == {"s0", "s1", "s2"}
    for e in obj["edges"]:
        for end in e["ends"]:
            assert set(end) == {"p", "slot"}
            assert end["slot"] in (0, 1, 2)


def test_position_round_trip():
    for maker in (make_t0, make_t1, make_t2):
        t = maker()
        back = position_from_json(position_to_json(t))
        assert validate_position(back) == []
        assert position_to_json(back) == position_to_json(t)


def test_position_round_trip_random():
    g = random_cubic(3, 2)
    t = random_normal_torus(g, 5, 5)
    assert position_to_json(position_from_json(position_to_json(t))) == position_to_json(t)


def test_normal_torus_round_trip():
    nt = to_normal_torus(make_t2())
    back = normal_torus_from_json(normal_torus_to_json(nt))
    assert back.nodes == nt.nodes
    assert back.crossings == nt.crossings
    assert sorted((l.node, l.half_edge) for l in back.leaves) == sorted(
        (l.node, l.half_edge) for l in nt.leaves
    )
    assert position_to_json(back.position) == position_to_json(nt.position)


def test_decorated_round_trip_preserves_canonical_form():
    d = decorate(to_normal_torus(make_t2()), "F2", "A")
    back = decorated_from_json(decorated_to_json(d))
    assert canonicalize(back) == canonicalize(d)
    assert back.base_piece == "F2"


def test_dumps_deterministic():
    t = make_t0()
    assert dumps(position_to_json(t)) == dumps(position_to_json(make_t0()))


def test_load_any_dispatch():
    kind, value = load_any(dumps(graph_to_json(build_standard(2))))
    assert kind == "sphere_graph"
    kind, value = load_any(dumps(position_to_json(make_t0())))
    assert kind == "position"


def test_schema_errors():
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_any("{nope")
    with pytest.raises(SchemaError, match="unknown kind"):
        load_any(json.dumps({"format": 1, "kind": "mystery"}))
    bad = graph_to_json(build_standard(2))
    bad["format"] = 99
    with pytest.raises(SchemaError, match="unsupported format"):
        graph_from_json(bad)
    mangled = position_to_json(make_t0())
    del mangled["pieces"][0]["boundary"][0]["circle"]
    with pytest.raises(SchemaError, match="malformed position"):
        position_from_json(mangled)
    for kind in (["position"], {"kind": "position"}):
        with pytest.raises(SchemaError, match="unknown kind"):
            load_any(json.dumps({"format": 1, "kind": kind}))
    bit = position_to_json(make_t0())
    bit["side_transport"]["c0"] = "zz"
    want = "malformed position: side_transport.c0: expected bool, got str"
    with pytest.raises(SchemaError, match=re.escape(want)):
        position_from_json(bit)
    genus = position_to_json(make_t0())
    genus["pieces"][0]["genus"] = {"g": 1}
    want = "malformed position: pieces[0].genus: expected int, got dict"
    with pytest.raises(SchemaError, match=re.escape(want)):
        load_any(dumps(genus))
    ends = graph_to_json(build_standard(2))
    ends["edges"][0]["ends"].append({"p": "p0", "slot": 2})
    want = "malformed sphere_graph: edges[0].ends: expected 2 items, got 3"
    with pytest.raises(SchemaError, match=re.escape(want)):
        graph_from_json(ends)
    with pytest.raises(SchemaError, match="^top-level JSON value must be an object$"):
        load_any("[]")
    with pytest.raises(SchemaError, match="^expected a JSON object for sphere_graph$"):
        graph_from_json([])


def _repeat(obj, where):
    """Append the first item of the list at ``where``, a path of keys and indices, to that list again."""
    items = obj
    for key in where:
        items = items[key]
    items.append(items[0])


_REPEATED = {
    "tree": (lambda t: _repeat(t, ["region_trees"]), 'region_trees[3].sphere: repeats "s0"'),
    "piece": (lambda t: _repeat(t, ["pieces"]), 'pieces[2].id: repeats "F0"'),
    "circle": (lambda t: _repeat(t, ["circles"]), 'circles[2].id: repeats "c0"'),
    "region": (lambda t: _repeat(t, ["region_trees", 0, "regions"]), 'region_trees[0].regions[2]: repeats "r0"'),
    "tree-edge": (lambda t: _repeat(t, ["region_trees", 0, "edges"]),
                  'region_trees[0].edges[1].circle: repeats "c0"'),
    "uncrossed": (lambda t: _repeat(t, ["pieces", 0, "uncrossed"]),
                  'pieces[0].uncrossed[1].half_edge: repeats {"end": 1, "sphere": "s2"}'),
    "foreign-sphere": (lambda t: t["region_trees"].append({"sphere": "s9", "regions": ["r9"], "edges": []}),
                       'region_trees[3].sphere: no sphere "s9" in the graph'),
    "graph-pants": (lambda t: _repeat(t, ["graph", "p_vertices"]), 'graph.p_vertices[2]: repeats "p0"'),
    "graph-sphere": (lambda t: _repeat(t, ["graph", "edges"]), 'graph.edges[3].id: repeats "s0"'),
}


@pytest.mark.parametrize("case", sorted(_REPEATED))
def test_position_reader_rejects_repeated_entries(case, tmp_path, capsys):
    """A repeated entry, or a tree of a sphere the graph lacks, is an error, not silently dropped."""
    edit, where = _REPEATED[case]
    obj = position_to_json(make_t0())
    edit(obj)
    path = tmp_path / f"{case}.json"
    path.write_text(dumps(obj), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: malformed position: {where}\n")


_WRITTEN_FROM_T0 = {
    "position": (lambda: position_to_json(make_t0()), "side_transport"),
    "normal_torus": (lambda: normal_torus_to_json(to_normal_torus(make_t0())), "position.side_transport"),
    "decorated_graph": (lambda: decorated_to_json(decorate(to_normal_torus(make_t0()))), "position.side_transport"),
}


@pytest.mark.parametrize("kind", sorted(_WRITTEN_FROM_T0))
def test_repeated_transport_bit_rejected(kind, tmp_path, capsys):
    """A circle listed twice in ``side_transport`` is named, though ``json.loads`` keeps only the last bit."""
    write, where = _WRITTEN_FROM_T0[kind]
    text = dumps(write())
    assert text.count('"side_transport": {') == 1 and '"c0": true' in text
    path = tmp_path / "repeat.json"
    path.write_text(text.replace('"side_transport": {', '"side_transport": {"c0": false,'), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f'error: malformed {kind}: {where}: repeats "c0"\n')


@pytest.mark.parametrize("decoy", [False, True], ids=["alone", "after-a-plain-copy"])
@pytest.mark.parametrize("kind", sorted(_WRITTEN_FROM_T0))
def test_repeated_transport_bit_under_an_escaped_key_rejected(kind, decoy, tmp_path, capsys):
    """The same, with the ``side_transport`` key spelled with a JSON escape, alone or after a plain key with its bits."""
    write, where = _WRITTEN_FROM_T0[kind]
    text = dumps(write())
    start = text.index('"side_transport": {')
    block = text[start:text.index("}", start) + 1]
    escaped = block.replace('"side_transport": {', '"side\\u005ftransport": {"c0": false,')
    text = text.replace(block, (block + ", " if decoy else "") + escaped)
    assert ("side_transport" in text) == decoy and json.loads(text)
    path = tmp_path / "repeat.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f'error: malformed {kind}: {where}: repeats "c0"\n')


@pytest.mark.parametrize("key, where", [("p_vertices", 'p_vertices[4]: repeats "p0"'),
                                        ("edges", 'edges[6].id: repeats "s0"')])
def test_graph_reader_rejects_repeated_pants_and_spheres(key, where, tmp_path, capsys):
    """A pants or a sphere listed twice in a graph file is named, not counted into the betti number."""
    obj = graph_to_json(build_standard(3))
    _repeat(obj, [key])
    path = tmp_path / "g.json"
    path.write_text(dumps(obj), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: malformed sphere_graph: {where}\n")


def test_written_files_load_back_unchanged(tmp_path):
    positions = [make_t0(), normalize(make_t1()).torus.position, make_t2()]
    positions += [random_normal_torus(build_standard(3), 0, 12), random_normal_torus(random_cubic(4, 7), 1, 12)]
    writers = {
        "sphere_graph": graph_to_json,
        "position": position_to_json,
        "normal_torus": normal_torus_to_json,
        "decorated_graph": decorated_to_json,
    }
    payloads = []
    for t in positions:
        nt = to_normal_torus(t)
        d = decorate(nt, max(nt.nodes), "B")
        payloads += graph_to_json(t.graph), position_to_json(t), normal_torus_to_json(nt), decorated_to_json(d)
    payloads.append(minimality_experiment(make_t0(), 6, 3).to_json())
    # the fuzz summary is built inside the command, so take it on its way to the writer
    with recorded(dumps) as written:
        assert main(["fuzz", "--trials", "12", "--rank", "2", "--seed", "5", "-o", str(tmp_path / "fuzz.json")]) == 0
    payloads += [args[0] for args, _ in written]
    assert [p["kind"] for p in payloads[-2:]] == ["fuzz_report", "fuzz_summary"]
    for payload in payloads:
        text = dumps(payload)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if payload["kind"] in writers:
            kind, value = load_any(text)
            assert dumps(writers[kind](value)) == text


def test_dumps_matches_the_reference_on_edge_values():
    values = [
        {"c²": "naïve \"quoted\" back\\slash", "ctl": "\x00\x1f\t\n\r\x7f", "ünïcode": "\U0001f600 \u2028"},
        {"empty dict": {}, "empty list": [], "nested": [[], [{}], {"a": []}]},
        {"true": True, "one": 1, "list": [True, 1, False, 0, None]},
        {"neg": -7, "big": 2**200, "-big": -(3**150), "zero": 0},
        [],
        "top",
    ]
    for value in values:
        assert dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
    # no file holds a float, a set or a non-str key, so they are refused rather than guessed at
    for bad in ({"x": 1.5}, {"x": {1, 2}}, {1: "a"}, [{"ok": [0.0]}]):
        with pytest.raises(TypeError):
            dumps(bad)


def test_decorated_file_with_a_flipped_sign_rejected():
    obj = decorated_to_json(decorate(to_normal_torus(make_t2()), "F2", "A"))
    sign = obj["signs"][0]
    was, sign["sign"] = sign["sign"], "-" if sign["sign"] == "+" else "+"
    want = f'malformed decorated_graph: signs[0].sign: has "{sign["sign"]}", the position gives "{was}"'
    with pytest.raises(SchemaError, match=re.escape(want)):
        decorated_from_json(obj)


def test_normal_torus_graph_must_be_its_positions_graph():
    # swapping two slots of one pants gives another valid graph, over which the nodes still immerse
    obj = normal_torus_to_json(to_normal_torus(make_t2()))
    first, second = (edge["ends"][0] for edge in obj["graph"]["edges"][:2])
    assert first["p"] == second["p"]
    first["slot"], second["slot"] = second["slot"], first["slot"]
    want = "malformed normal_torus: graph.edges[0].ends[0].slot: has 1, the position gives 0"
    with pytest.raises(SchemaError, match=re.escape(want)):
        normal_torus_from_json(obj)
    # equal values of another JSON type differ too
    obj = normal_torus_to_json(to_normal_torus(make_t2()))
    obj["graph"]["format"] = True
    with pytest.raises(SchemaError, match=re.escape("graph.format: has true, the position gives 1")):
        normal_torus_from_json(obj)
    obj["graph"]["format"] = 1.0
    with pytest.raises(SchemaError, match=re.escape("graph.format: has 1.0, the position gives 1")):
        normal_torus_from_json(obj)


def test_normal_torus_file_without_position_rejected():
    obj = normal_torus_to_json(to_normal_torus(make_t2()))
    del obj["position"]
    want = "malformed normal_torus: position: expected dict, got nothing"
    with pytest.raises(SchemaError, match=re.escape(want)):
        load_any(dumps(obj))


def test_dot_exports_mention_everything():
    g = build_standard(2)
    dot = serialize.graph_to_dot(g)
    for name in ("p0", "p1", "s0", "s1", "s2"):
        assert name in dot
    t = make_t2()
    pdot = serialize.position_to_dot(t)
    for name in ("F0", "F1", "F2", "c0@s0"):
        assert name in pdot
    ndot = serialize.normal_torus_to_dot(to_normal_torus(t))
    assert "triangle" in ndot and "hexagon" in ndot
    d = decorate(to_normal_torus(t), "F2", "A")
    sdot = serialize.normal_torus_to_dot(d.torus, d.signs)
    assert "+" in sdot and "-" in sdot


_QUOTED = r'"(?:[^"\\\n]|\\.)*"'
_DOT_LINE = re.compile(rf'  (?:{_QUOTED}|node)(?: -- {_QUOTED})?(?: \[(?:\w+=(?:{_QUOTED}|\w+) ?)+\])?;')


def _dot_lines(text: str) -> list[list[str]]:
    """The quoted strings of each statement of a DOT export, unescaped; fails on a line that is not DOT."""
    lines = text.splitlines()
    assert re.fullmatch(r"graph \w+ \{", lines[0]) and lines[-1] == "}"
    for line in lines[1:-1]:
        assert _DOT_LINE.fullmatch(line), line
    unescape = {"n": "\n"}
    return [[re.sub(r"\\(.)", lambda m: unescape.get(m[1], m[1]), q[1:-1]) for q in re.findall(_QUOTED, line)]
            for line in lines[1:-1]]


def test_dot_exports_escape_ids(tmp_path, capsys):
    piece, sphere, pants = 'F0"x\\', "s0\\", 'p"0'
    text = dumps(position_to_json(make_t0()))
    for old, new in (("F0", piece), ("s0", sphere), ("p0", pants)):
        text = text.replace(json.dumps(old), json.dumps(new))
    odd, dec, graph = tmp_path / "odd.json", tmp_path / "dec.json", tmp_path / "graph.json"
    odd.write_text(text, encoding="utf-8")
    graph.write_text(dumps(json.loads(text)["graph"]), encoding="utf-8")
    assert main(["validate", str(odd)]) == 0
    assert main(["decorate", str(odd), "-o", str(dec)]) == 0
    exported = {}
    for path in (graph, odd, dec):
        capsys.readouterr()
        assert main(["export-dot", str(path)]) == 0
        exported[path] = _dot_lines(capsys.readouterr().out)
    assert exported[graph] == [[], [pants], ["p1"], [pants, "p1", sphere], [pants, "p1", "s1"], ["p1", pants, "s2"]]
    assert exported[odd] == [
        [],
        [piece, f"{piece}\n{pants} g=0"],
        ["F1", "F1\np1 g=0"],
        [piece, "F1", f"c0@{sphere}"],
        [piece, "F1", "c1@s1"],
    ]
    assert [piece, f"{piece}\n{pants} cylinder"] in exported[dec]
    assert [piece, "F1", f"c0@{sphere}"] in exported[dec]
    assert [piece, "leaf0"] in exported[dec]


def test_dot_leaf_names_clear_of_piece_ids(tmp_path, capsys):
    """t0 with ``F1`` renamed ``leaf0``: each leaf stub gets a node of its own, named past the piece ids."""
    text = dumps(position_to_json(make_t0())).replace(json.dumps("F1"), json.dumps("leaf0"))
    renamed, dec = tmp_path / "renamed.json", tmp_path / "dec.json"
    renamed.write_text(text, encoding="utf-8")
    assert main(["decorate", str(renamed), "-o", str(dec)]) == 0
    capsys.readouterr()
    assert main(["export-dot", str(dec)]) == 0
    assert _dot_lines(capsys.readouterr().out) == [
        ["F0", "F0\np0 cylinder"],
        ["leaf0", "leaf0\np1 cylinder"],
        ["F0", "leaf0", "c0@s0"],
        ["F0", "leaf0", "c1@s1"],
        ["leaf1", "s2@1 +"],
        ["F0", "leaf1"],
        ["leaf2", "s2@0 +"],
        ["leaf0", "leaf2"],
    ]
