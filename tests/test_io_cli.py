import json

import pytest

from pastekit import globe, interval_chain, u_cell, validate_complex
from pastekit.cli import main
from pastekit.fixtures import fixture_files, frob, power
from pastekit.render import export_dot, export_dot_maxd, export_svg_2diagram
from pastekit.serialize import (
    ParseError,
    parse_complex,
    parse_diag_presentation,
    parse_expr,
    parse_labelled,
    parse_presentation,
    serialize_complex,
    serialize_diag_presentation,
    serialize_expr,
    serialize_labelled,
    serialize_presentation,
)
from pastekit.theories import builtin
from pastekit.products import BASEPOINT, LabelledComplex


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    for name, blob in fixture_files().items():
        (out / name).write_bytes(blob)
    return out


def test_complex_roundtrip_is_canonical():
    o1 = globe(1)
    blob = serialize_complex(o1)
    parsed, _ = parse_complex(blob)
    assert serialize_complex(parsed) == blob


def test_parse_canonicalises_element_order():
    doc = {
        "name": "O1",
        "elements": [
            {"id": "1", "dim": 1, "covers": [
                {"id": "0+", "sign": "+"}, {"id": "0-", "sign": "-"}
            ]},
            {"id": "0+", "dim": 0, "covers": []},
            {"id": "0-", "dim": 0, "covers": []},
        ],
    }
    parsed, _ = parse_complex(json.dumps(doc))
    assert serialize_complex(parsed) == serialize_complex(globe(1))


def test_parse_rejects_dangling_cover():
    doc = {"name": "bad", "elements": [
        {"id": "e", "dim": 1, "covers": [{"id": "ghost", "sign": "-"}]}
    ]}
    with pytest.raises(Exception, match="ghost|missing"):
        parse_complex(json.dumps(doc))


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_complex(b"{not json")
    with pytest.raises(ParseError):
        parse_complex(b"[1,2,3]")


def test_fixture_files_parse_and_validate(fixture_dir):
    for name in ("o2.json", "i3.json", "u21.json", "frob.json", "power.json"):
        cx, extra = parse_complex((fixture_dir / name).read_bytes())
        assert validate_complex(cx).passed, name
        blob = serialize_complex(cx, extra)
        assert blob == (fixture_dir / name).read_bytes()


def test_fixture_names_map_to_elements(fixture_dir):
    cx, extra = parse_complex((fixture_dir / "power.json").read_bytes())
    names = extra["names"]
    assert set(names) >= {"lam", "rho", "beta", "tau", "x", "y"}
    assert all(v in cx for v in names.values())


def test_presentation_roundtrip():
    mon = builtin("Mon")
    blob = serialize_presentation(mon)
    again = parse_presentation(blob)
    assert serialize_presentation(again) == blob
    assert again.generators == mon.generators


@pytest.mark.parametrize("name", ["MonComplex", "coMonComplex"])
def test_diag_presentation_roundtrip(name):
    blob = serialize_diag_presentation(builtin(name))
    assert serialize_diag_presentation(parse_diag_presentation(blob)) == blob


def test_labelled_roundtrip():
    lc = LabelledComplex(
        globe(1), {"0-": BASEPOINT, "0+": BASEPOINT, "1": "a"}
    )
    blob = serialize_labelled(lc)
    again = parse_labelled(blob)
    assert serialize_labelled(again) == blob


def test_expr_roundtrip():
    from pastekit import interpret

    F = frob()
    e = interpret(F.molecule)
    blob = serialize_expr(e)
    again = parse_expr(blob, F.molecule.complex)
    assert serialize_expr(again) == blob
    assert again.steps == e.steps


def test_export_dot_shapes():
    out = export_dot(globe(2))
    assert out.count("->") == 6
    assert "rank=same" in out
    empty = export_dot(globe(0))
    assert empty.count("->") == 0


def test_export_dot_maxd_distinguishes_classes():
    from pastekit import maxd

    i2 = interval_chain(2)
    g = maxd(i2.complex, i2.members, 0)
    out = export_dot_maxd(g)
    assert out.count("shape=box") == 2
    assert out.count("shape=ellipse") == 3


def test_export_svg_shapes():
    one_wire = export_svg_2diagram(globe(1))
    assert one_wire.count("<line") == 1 and "<circle" not in one_wire
    u21 = export_svg_2diagram(u_cell(2, 1).as_complex("U21"))
    assert u21.count("<circle") == 1 and u21.count("<line") == 3
    with pytest.raises(ValueError):
        export_svg_2diagram(frob().molecule.complex)


def test_export_svg_dotted_wires():
    from pastekit import gray_labelled, smash_collapse

    a = LabelledComplex(globe(1), {"0-": BASEPOINT, "0+": BASEPOINT, "1": "a"})
    square = smash_collapse(gray_labelled(a, a))
    out = export_svg_2diagram(square)
    assert "stroke-dasharray" in out


def test_cli_validate(fixture_dir, capsys):
    assert main(["validate", str(fixture_dir / "o2.json")]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS (0 unknown)")


# both faces of the 2-cell carry "+", so it has no input face
BROKEN = {
    "name": "broken",
    "elements": [
        {"id": "0-", "dim": 0, "covers": []},
        {"id": "0+", "dim": 0, "covers": []},
        {"id": "1-", "dim": 1, "covers": [{"id": "0-", "sign": "-"}, {"id": "0+", "sign": "+"}]},
        {"id": "1+", "dim": 1, "covers": [{"id": "0-", "sign": "-"}, {"id": "0+", "sign": "+"}]},
        {"id": "2", "dim": 2, "covers": [{"id": "1-", "sign": "+"}, {"id": "1+", "sign": "+"}]},
    ],
}


def test_cli_validate_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN))
    assert main(["validate", str(path)]) == 1


def test_cli_gray_rejects_invalid_factor(fixture_dir, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN))
    assert main(["gray", str(path), str(fixture_dir / "o1.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "factor broken" in captured.err


def test_cli_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "bad", "elements": [
            {"id": "v", "dim": 0, "covers": []},
            {"id": "e", "dim": 1, "covers": [{"id": ["v"], "sign": "-"}]},
        ]},
        {"name": "bad", "elements": [
            {"id": "v", "dim": 0, "covers": []},
            {"id": "e", "dim": True, "covers": [{"id": "v", "sign": "-"}]},
        ]},
        {"name": 5, "elements": [{"id": "v", "dim": 0, "covers": []}]},
        {"name": "bad", "elements": 5},
    ],
    ids=["list-cover-id", "bool-dim", "int-name", "int-elements"],
)
def test_cli_rejects_mistyped_fields(tmp_path, capsys, doc):
    with pytest.raises(ParseError):
        parse_complex(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "base, field, value, command",
    [
        ("o1.json", "labels", 5, ["smash", "{f}", "{f}"]),
        ("o1.json", "labels", 5, ["export", "{f}", "--format", "svg"]),
        ("o1.json", "labels", [["0-", "x"]], ["smash", "{f}", "{f}"]),
        ("frob.json", "names", 5, ["interpret", "{f}"]),
    ],
    ids=["int-labels-smash", "int-labels-svg", "pair-list-labels", "int-names-interpret"],
)
def test_cli_rejects_mistyped_maps(fixture_dir, tmp_path, capsys, base, field, value, command):
    doc = json.loads((fixture_dir / base).read_bytes())
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=field):
        parse_complex(path.read_bytes())
    assert main([arg.format(f=path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


SLICE = ["relations", 0, "lhs", "slices", 0]


@pytest.mark.parametrize(
    "path, value, match",
    [
        (["flags"], 5, "flags"),
        (["relations"], [[1]], "relations"),
        (["sorts"], "ab", "sorts"),
        (["relations", 0, "lhs", "source"], "111", "source"),
        (["relations", 0, "rhs", "slices", 0, "pre"], "1", "pre"),
        (SLICE + ["post"], "1", "post"),
        (SLICE + ["op"], {"braid": "11"}, "braid"),
        (SLICE + ["op"], {"braidInv": ["1", "1", "1"]}, "braidInv"),
    ],
    ids=[
        "int-flags", "list-relation", "string-sorts", "string-source", "string-pre", "string-post",
        "string-braid", "triple-braidInv",
    ],
)
def test_cli_rejects_mistyped_presentation(fixture_dir, tmp_path, capsys, path, value, match):
    doc = json.loads((fixture_dir / "mon.json").read_bytes())
    _set(doc, path, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=match):
        parse_presentation(path.read_bytes())
    assert main(["tensor", str(path), str(fixture_dir / "comon.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "path, value, match",
    [
        (["source", "support"], "ab", "support"),
        (["steps", 0, "interchange", "pair"], "ab", "pair"),
        (["steps", 0, "interchange", "pos"], "0", "pos"),
        (["steps", 0, "interchange", "pos"], True, "pos"),
    ],
    ids=["string-support", "string-pair", "string-pos", "bool-pos"],
)
def test_parse_expr_rejects_mistyped_fields(path, value, match):
    from pastekit import interpret

    F = frob()
    doc = json.loads(serialize_expr(interpret(F.molecule)))
    assert "interchange" in doc["steps"][0]
    _set(doc, path, value)
    with pytest.raises(ParseError, match=match):
        parse_expr(json.dumps(doc), F.molecule.complex)


@pytest.mark.parametrize(
    "field, value", [("dim", "1"), ("dim", True), ("name", 5)], ids=["string-dim", "bool-dim", "int-name"]
)
def test_parse_diag_presentation_rejects_mistyped_cells(field, value):
    doc = json.loads(serialize_diag_presentation(builtin("MonComplex")))
    doc["cells"][1][field] = value
    with pytest.raises(ParseError, match=f"cell {field}"):
        parse_diag_presentation(json.dumps(doc))


def test_cli_usage_error():
    assert main(["no-such-command"]) == 2


def test_cli_paste_and_boundary(fixture_dir, capsys):
    assert main(["paste", "0", str(fixture_dir / "o1.json"), str(fixture_dir / "o1.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 5
    assert main(["paste", "1", str(fixture_dir / "u21.json"), str(fixture_dir / "u21.json")]) == 1
    capsys.readouterr()
    assert main(["boundary", str(fixture_dir / "u21.json"), "-n", "1", "-s", "+", "--ids-only"]) == 0
    ids = capsys.readouterr().out.split()
    assert len(ids) == 3


def test_cli_atom_and_compos(fixture_dir, capsys, tmp_path):
    assert main(["atom", "ucell", "2", "2"]) == 0
    blob = capsys.readouterr().out
    assert len(json.loads(blob)["elements"]) == 9
    f = tmp_path / "u22.json"
    f.write_text(blob)
    assert main(["compos", str(f)]) == 0
    assert len(json.loads(capsys.readouterr().out)["elements"]) == 9


def test_cli_interpret(fixture_dir, capsys):
    assert main(["interpret", str(fixture_dir / "frob.json")]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "χ⁻[w,y] ; χ⁻[z,y] ; c[phi] ; c[psi]"


def test_cli_tensor(fixture_dir, capsys):
    assert main(["tensor", str(fixture_dir / "mon.json"), str(fixture_dir / "comon.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [g["name"] for g in doc["generators"]] == ["μ⊗1", "η⊗1", "1⊗δ", "1⊗ε"]
    assert len(doc["relations"]) == 10


def test_cli_gray_and_smash(fixture_dir, capsys, tmp_path):
    assert main(["gray", str(fixture_dir / "o1.json"), str(fixture_dir / "o1.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 9
    a = tmp_path / "arrow.json"
    a.write_bytes(
        serialize_labelled(
            LabelledComplex(globe(1), {"0-": BASEPOINT, "0+": BASEPOINT, "1": "a"})
        )
    )
    assert main(["smash", str(a), str(a)]) == 0
    doc = json.loads(capsys.readouterr().out)
    kept = [k for k, v in doc["labels"].items() if v != BASEPOINT]
    assert kept == ["1⊗1"]


def test_cli_maxd_and_export(fixture_dir, capsys):
    assert main(["maxd", str(fixture_dir / "i2.json"), "0"]) == 0
    assert "shape=box" in capsys.readouterr().out
    assert main(["export", str(fixture_dir / "o2.json"), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert main(["export", str(fixture_dir / "u21.json"), "--format", "svg"]) == 0
    assert "<svg" in capsys.readouterr().out
    assert main(["export", str(fixture_dir / "frob.json"), "--format", "svg"]) == 1


def test_cli_fixtures_lists(capsys):
    assert main(["fixtures"]) == 0
    names = capsys.readouterr().out.split()
    assert "frob.json" in names and "power.json" in names


def test_all_shipped_complex_fixtures_validate(fixture_dir):
    for path in sorted(fixture_dir.iterdir()):
        blob = path.read_bytes()
        doc = json.loads(blob)
        if "elements" not in doc:
            continue  # presentations are covered elsewhere
        cx, _ = parse_complex(blob)
        assert validate_complex(cx).passed, path.name


def test_maxd_dot_of_collapsed_power_shows_blocking_path():
    from pastekit import check_sim_substitution, compos, maxd, recognize, substitute

    P = power()
    u = P.molecule
    cx = u.complex
    v = cx.closure([P["lam"], P["tau"]])
    collapsed = substitute(u, v, compos(recognize(cx, v)))
    g = maxd(collapsed.complex, collapsed.members, 2)
    out = export_dot_maxd(g, "power.collapsed.maxd2")
    assert collapsed.left_map is not None and collapsed.right_map is not None
    hole = collapsed.right_map["top"]
    path = [
        collapsed.left_map[P["rho"]],
        collapsed.left_map[P["y"]],
        hole,
        collapsed.left_map[P["x"]],
        collapsed.left_map[P["beta"]],
    ]
    for a, b in zip(path, path[1:]):
        assert f'"{a}" -> "{b}";' in out


def test_cli_interpret_with_explicit_order(fixture_dir, capsys):
    blob = json.loads((fixture_dir / "frob.json").read_text())
    names = blob["names"]
    order = ",".join([names["psi"], names["phi"]])
    assert main(["interpret", str(fixture_dir / "frob.json"), "--order", order]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "χ⁻[w,y] ; χ⁻[z,y] ; c[psi] ; c[phi]"


def test_parse_rejects_duplicate_ids():
    doc = {"name": "dup", "elements": [
        {"id": "v", "dim": 0, "covers": []},
        {"id": "v", "dim": 0, "covers": []},
    ]}
    with pytest.raises(ParseError, match="duplicate"):
        parse_complex(json.dumps(doc))


def test_cli_boundary_both_signs(fixture_dir, capsys):
    assert main(["boundary", str(fixture_dir / "u21.json"), "-n", "0", "--ids-only"]) == 0
    ids = capsys.readouterr().out.split()
    assert len(ids) == 2
