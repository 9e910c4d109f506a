import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pastekit import Complex, globe, globe_molecule, gray_labelled, interval_chain, paste, u_cell, validate_complex
from pastekit import cli, interpret, serialize
from pastekit.cli import main
from pastekit.fixtures import fixture_files, frob, power
from pastekit.graycat import ExpressionError
from pastekit.molecules import whole
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


# a wire beside a cell runs from its place in one layer to its place in the next
SVG_BESIDE = """\
<svg xmlns="http://www.w3.org/2000/svg" width="160" height="90">
<line x1="40" y1="20" x2="60" y2="45" stroke="black"/>
<line x1="80" y1="20" x2="60" y2="45" stroke="black"/>
<line x1="120" y1="20" x2="80" y2="70" stroke="black"/>
<line x1="60" y1="45" x2="40" y2="70" stroke="black"/>
<circle cx="60" cy="45" r="5" fill="black"/>
<text x="68" y="49" font-size="12">left/top</text>
</svg>
"""
SVG_STACK = """\
<svg xmlns="http://www.w3.org/2000/svg" width="160" height="140">
<line x1="40" y1="20" x2="40" y2="70" stroke="black"/>
<line x1="80" y1="20" x2="100" y2="45" stroke="black"/>
<line x1="120" y1="20" x2="100" y2="45" stroke="black"/>
<line x1="100" y1="45" x2="80" y2="70" stroke="black"/>
<line x1="100" y1="45" x2="120" y2="70" stroke="black"/>
<circle cx="100" cy="45" r="5" fill="black"/>
<text x="108" y="49" font-size="12">left/right/top</text>
<line x1="40" y1="70" x2="60" y2="95" stroke="black"/>
<line x1="80" y1="70" x2="60" y2="95" stroke="black"/>
<line x1="120" y1="70" x2="80" y2="120" stroke="black"/>
<line x1="60" y1="95" x2="40" y2="120" stroke="black"/>
<circle cx="60" cy="95" r="5" fill="black"/>
<text x="68" y="99" font-size="12">right/left/top</text>
</svg>
"""


def test_export_svg_draws_wires_beside_cells():
    o1 = globe_molecule(1)
    beside = paste(u_cell(2, 1), o1, 0)
    assert export_svg_2diagram(beside.as_complex("beside")) == SVG_BESIDE
    # whiskered on the left below and on the right above
    stack = paste(paste(o1, u_cell(2, 2), 0), paste(u_cell(2, 1), o1, 0), 1)
    assert export_svg_2diagram(stack.as_complex("stack")) == SVG_STACK


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


def test_cli_validate_failure(fixture_dir, tmp_path, capsys):
    docs = {
        "broken": json.dumps(BROKEN),
        "o3-cut-cover": _o3_doc(fixture_dir, _cut_2_minus),
        "o3-flipped-sign": _o3_doc(fixture_dir, _flip_1_minus),
        "o5-no-input-face": _o5_no_input_face(),
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr() == (VALIDATE_FAILURES[name], ""), name


# one row per cell, which names every check that failed on it
VALIDATE_FAILURES = {
    "broken": """\
1+: dim=1 spherical=True input=PASS output=PASS globular=None [ok]
1-: dim=1 spherical=True input=PASS output=PASS globular=None [ok]
2: dim=2 spherical=False input=FAIL output=FAIL globular=False [FAIL]
broken: FAIL (0 unknown)
""",
    "o3-cut-cover": """\
1+: dim=1 spherical=True input=PASS output=PASS globular=None [ok]
1-: dim=1 spherical=True input=PASS output=PASS globular=None [ok]
2+: dim=2 spherical=True input=PASS output=PASS globular=True [ok]
2-: dim=2 spherical=False input=PASS output=FAIL globular=False [FAIL]
3: dim=3 spherical=False input=PASS output=PASS globular=False [FAIL]
O3: FAIL (0 unknown)
""",
    "o3-flipped-sign": """\
1+: dim=1 spherical=True input=PASS output=PASS globular=None [ok]
1-: dim=1 spherical=True input=FAIL output=FAIL globular=None [FAIL]
2+: dim=2 spherical=False input=PASS output=PASS globular=False [FAIL]
2-: dim=2 spherical=False input=PASS output=PASS globular=False [FAIL]
3: dim=3 spherical=False input=PASS output=PASS globular=True [FAIL]
O3: FAIL (0 unknown)
""",
    # the top's output boundary is its two 4-cells, which recognition cannot
    # tell from a molecule above dimension 3
    "o5-no-input-face": """\
1+: dim=1 spherical=True input=PASS output=PASS globular=None [ok]
1-: dim=1 spherical=True input=PASS output=PASS globular=None [ok]
2+: dim=2 spherical=True input=PASS output=PASS globular=True [ok]
2-: dim=2 spherical=True input=PASS output=PASS globular=True [ok]
3+: dim=3 spherical=True input=PASS output=PASS globular=True [ok]
3-: dim=3 spherical=True input=PASS output=PASS globular=True [ok]
4+: dim=4 spherical=True input=PASS output=PASS globular=True [ok]
4-: dim=4 spherical=True input=PASS output=PASS globular=True [ok]
5: dim=5 spherical=False input=FAIL output=UNKNOWN globular=False [FAIL]
O5: FAIL (1 unknown)
""",
}


def _o5_no_input_face() -> str:
    """The 5-globe with the top's ``4-`` cover signed ``+``."""
    doc = json.loads(serialize_complex(globe(5)))
    (top,) = [e for e in doc["elements"] if e["id"] == "5"]
    for cover in top["covers"]:
        cover["sign"] = "+"
    return json.dumps(doc)


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
        (SLICE + ["op"], {"twist": ["1", "1"]}, "unknown op"),
        (["relations", 0, "lhs"], 5, "malformed layered cell 5"),
        (["generators"], "μ", "expected an object with a 'generators' list"),
        (["generators", 0], {"in": ["1", "1"], "out": ["1"]}, "malformed generator"),
        (["relations", 0], {"name": "α"}, "relation without 'lhs'"),
    ],
    ids=[
        "int-flags", "list-relation", "string-sorts", "string-source", "string-pre", "string-post",
        "string-braid", "triple-braidInv", "unknown-op", "int-cell", "string-generators",
        "nameless-generator", "relation-without-lhs",
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


def test_parse_diag_presentation_rejects_a_document_without_cells():
    with pytest.raises(ParseError, match="malformed diagrammatic presentation: 'cells'"):
        parse_diag_presentation(json.dumps({"name": "MonComplex"}))


@pytest.mark.parametrize(
    "path, value, match",
    [
        (["steps", 0, "interchange", "pos"], 9, "interchange position 9 out of range"),
        (["steps", 0, "interchange", "pair"], ["left/left/right/right/top"] * 2, "pair mismatch at position 2"),
        (["steps", 0, "interchange", "dir"], "sideways", "unknown interchange direction 'sideways'"),
        (["steps", 2, "apply", "pre"], [], "generator step on 'left/right/left/top' expects order"),
    ],
    ids=["pos-out-of-range", "pair-mismatch", "unknown-direction", "generator-at-wrong-order"],
)
def test_walking_an_edited_expression_raises_expression_error(path, value, match):
    from pastekit import interpret
    from pastekit.graycat import walk

    F = frob()
    doc = json.loads(serialize_expr(interpret(F.molecule)))
    _set(doc, path, value)
    e = parse_expr(json.dumps(doc), F.molecule.complex)
    with pytest.raises(ExpressionError, match=match):
        walk(e)


def test_cli_usage_error(capsys):
    """A refused argument list is one line on stderr, not the usage and the error."""
    for argv, message in [
        (["validate"], "pastekit validate: error: the following arguments are required: file"),
        (["no-such-command"], "pastekit: error: argument command: invalid choice: 'no-such-command'"),
        (["validate", "a.json", "b.json"], "pastekit: error: unrecognized arguments: b.json"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message) and captured.err.count("\n") == 1, argv


@pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: pastekit") and captured.err == ""


@pytest.mark.parametrize(
    "base, edit, command, message",
    [
        ("mon.json", lambda doc: _set(doc, SLICE + ["op"], {"gen": "zz"}), ["tensor", "{f}", "{d}/comon.json"],
         "unknown generator 'zz'"),
        ("o1.json", lambda doc: doc.update(labels={"0-": "x", "0+": "x"}), ["smash", "{f}", "{f}"],
         "O1: unlabelled elements ['1']"),
        ("o1.json", lambda doc: doc.update(labels={"0-": "x", "0+": "x"}), ["export", "{f}", "--format", "svg"],
         "O1: unlabelled elements ['1']"),
        ("o1.json", lambda doc: None, ["smash", "{f}", "{f}"], "labelled complex needs a 'labels' map"),
        ("o1.json", lambda doc: None, ["gray", "--labelled", "{f}", "{f}"], "labelled complex needs a 'labels' map"),
        ("o1.json", lambda doc: _set(doc, ["elements", 2, "covers", 0, "sign"], "x"), ["validate", "{f}"],
         "O1: element '1' has invalid sign 'x'"),
    ],
    ids=[
        "tensor-unknown-generator", "smash-unlabelled-element", "export-unlabelled-element", "smash-without-labels",
        "gray-labelled-without-labels", "validate-invalid-sign",
    ],
)
def test_cli_documents_failing_their_own_check_exit_2(fixture_dir, tmp_path, capsys, base, edit, command, message):
    doc = json.loads((fixture_dir / base).read_bytes())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([arg.format(f=path, d=fixture_dir) for arg in command]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


def test_cli_main_reuses_its_parser_without_carrying_state(fixture_dir, capsys):
    u21 = str(fixture_dir / "u21.json")
    calls = [
        ["boundary", u21, "-n", "1", "--ids-only"],  # success, with a defaulted option
        ["boundary", u21, "-s", "+"],  # usage error: -n is required
        ["paste", "1", u21, u21],  # semantic failure: boundaries differ
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 1]
    for order in (calls, calls[::-1]):
        assert [run(argv) for argv in order] == [fresh[calls.index(argv)] for argv in order]
    assert cli._parser() is cli._parser()


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


def test_cli_atom_ucell_needs_two_arities(capsys):
    assert main(["atom", "ucell", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ucell needs two arities\n"


def test_cli_atom_globe_and_interval(capsysbinary):
    assert main(["atom", "globe", "2"]) == 0
    assert capsysbinary.readouterr().out == serialize_complex(globe(2))
    assert main(["atom", "interval", "3"]) == 0
    assert capsysbinary.readouterr().out == serialize_complex(interval_chain(3).as_complex("I3"))


def test_cli_boundary_writes_the_boundary_as_a_complex(fixture_dir, capsysbinary):
    path = fixture_dir / "u21.json"
    assert main(["boundary", str(path), "-n", "1", "-s", "+"]) == 0
    cx, _ = parse_complex(path.read_bytes())
    wire = cx.restrict(cx.boundary(cx.whole(), 1, "+"), f"{cx.name}.bd1+")
    assert capsysbinary.readouterr().out == serialize_complex(wire)
    assert len(wire) == 3


@pytest.mark.parametrize("n, m", [(0, 2), (2, 0)])
def test_u_cell_names_its_own_arities(n, m, capsys):
    message = f"u-cells need at least one input and one output wire, not ({n}, {m})"
    with pytest.raises(ValueError) as exc:
        u_cell(n, m)
    assert str(exc.value) == message
    assert main(["atom", "ucell", str(n), str(m)]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_python_dash_m_runs_the_cli(capsysbinary):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-m", "pastekit", "atom", "ucell", "2", "1"],
        capture_output=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert main(["atom", "ucell", "2", "1"]) == 0
    assert run.stdout == capsysbinary.readouterr().out


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


def test_cli_gray_labelled(tmp_path, capsysbinary):
    a = LabelledComplex(globe(1), {"0-": BASEPOINT, "0+": BASEPOINT, "1": "a"})
    b = LabelledComplex(globe(1), {"0-": "p", "0+": "q", "1": "b"})
    for name, lc in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_bytes(serialize_labelled(lc))
    assert main(["gray", "--labelled", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    assert capsysbinary.readouterr().out == serialize_labelled(gray_labelled(a, b))


@pytest.mark.parametrize("fmt", ["dot", "svg"])
@pytest.mark.parametrize("labelled", [False, True])
def test_cli_export_reads_and_parses_its_file_once(fixture_dir, tmp_path, monkeypatch, capsysbinary, fmt, labelled):
    cx, _ = parse_complex((fixture_dir / "u21.json").read_bytes())
    labels = {x: "m" if cx.dim_of(x) == 2 else x for x in cx.elements()}
    path = tmp_path / "u21.json"
    path.write_bytes(serialize_labelled(LabelledComplex(cx, labels)) if labelled else serialize_complex(cx))
    counts = {"read": 0, "load": 0}

    def counted(key, f):
        def wrapped(*args):
            counts[key] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(cli, "_read", counted("read", cli._read))
    monkeypatch.setattr(serialize, "_load", counted("load", serialize._load))
    assert main(["export", str(path), "--format", fmt]) == 0
    if fmt == "dot":
        want = export_dot(cx)
    else:
        want = export_svg_2diagram(LabelledComplex(cx, labels if labelled else {x: x for x in cx.elements()}))
    assert capsysbinary.readouterr().out == want.encode("utf-8")
    assert counts == {"read": 1, "load": 1}


def test_cli_maxd_and_export(fixture_dir, capsys):
    assert main(["maxd", str(fixture_dir / "i2.json"), "0"]) == 0
    assert "shape=box" in capsys.readouterr().out
    assert main(["export", str(fixture_dir / "o2.json"), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert main(["export", str(fixture_dir / "u21.json"), "--format", "svg"]) == 0
    assert "<svg" in capsys.readouterr().out
    assert main(["export", str(fixture_dir / "frob.json"), "--format", "svg"]) == 1


def test_cli_svg_rejects_cells_without_a_total_order(fixture_dir, tmp_path, capsys):
    doc = json.loads((fixture_dir / "o2.json").read_bytes())
    # two disjoint 2-globes: neither 2-cell precedes the other
    copy = lambda e, p: {**e, "id": p + e["id"], "covers": [{**c, "id": p + c["id"]} for c in e["covers"]]}
    doc["elements"] = [copy(e, p) for p in ("a", "b") for e in doc["elements"]]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    assert main(["export", str(path), "--format", "svg"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "string diagram" in captured.err


def test_cli_svg_rejects_parallel_wires(fixture_dir, tmp_path, capsys):
    doc = json.loads((fixture_dir / "o2.json").read_bytes())
    # without its 2-cell, o2 is two parallel arrows leaving the same vertex
    doc["elements"] = [e for e in doc["elements"] if e["dim"] < 2]
    path = tmp_path / "par.json"
    path.write_text(json.dumps(doc))
    assert main(["export", str(path), "--format", "svg"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "wire layer is not a single path" in captured.err


def _two_source_layer(fixture_dir, tmp_path):
    """o1 with a second wire whose two covers are both inputs."""
    doc = json.loads((fixture_dir / "o1.json").read_bytes())
    doc["elements"].append({"id": "b", "dim": 1, "covers": [{"id": "0-", "sign": "-"}, {"id": "0+", "sign": "-"}]})
    path = tmp_path / "twosrc.json"
    path.write_text(json.dumps(doc))
    return ["export", str(path), "--format", "svg"]


def _side_by_side(fixture_dir, tmp_path):
    """Two 2-cells pasted at 0: a molecule without a spherical boundary."""
    path = tmp_path / "side.json"
    path.write_bytes(serialize_complex(paste(u_cell(1, 1), u_cell(1, 1), 0).complex))
    return ["compos", str(path)]


def _o3_doc(fixture_dir, edit) -> str:
    """o3 after ``edit`` of its elements by id: no longer regular, still an atom."""
    doc = json.loads((fixture_dir / "o3.json").read_bytes())
    edit({e["id"]: e for e in doc["elements"]})
    return json.dumps(doc)


def _o3_edited(edit):
    """``interpret`` on `_o3_doc`."""

    def argv(fixture_dir, tmp_path):
        path = tmp_path / "o3.json"
        path.write_text(_o3_doc(fixture_dir, edit))
        return ["interpret", str(path)]

    return argv


def _cut_2_minus(elements):
    elements["2-"]["covers"] = [{"id": "1-", "sign": "-"}]


def _flip_1_minus(elements):
    for cover in elements["1-"]["covers"]:
        if cover["id"] == "0+":
            cover["sign"] = "-"


def _disjoint_globes(n: int):
    """``compos`` on two disjoint n-globes in one file, named ``pair<n>``."""

    def argv(fixture_dir, tmp_path):
        o = globe(n)
        table = {f"{tag}{x}": (o.dim_of(x), [(f"{tag}{y}", s) for y, s in o.covers(x)]) for tag in "ab" for x in o}
        path = tmp_path / f"pair{n}.json"
        path.write_bytes(serialize_complex(Complex(f"pair{n}", table)))
        return ["compos", str(path)]

    return argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            lambda d, t: ["paste", "1", str(d / "u21.json"), str(d / "u21.json")],
            "cannot paste U2_1 and U2_1 at 1: boundaries not isomorphic "
            "(first mismatch in stratum 0 (2 vs 3 elements), sizes 3 vs 5)",
        ),
        (_side_by_side, "((O1=>O1)#0(O1=>O1)): composite cell needs a spherical boundary"),
        (lambda d, t: ["export", str(d / "frob.json"), "--format", "svg"], "string diagrams render up to dimension 2"),
        (_two_source_layer, "wire layer is not a single path"),
        # recognition finds no split of two arrows, and cannot tell above dimension 3
        (_disjoint_globes(1), "pair1: not a molecule"),
        (_disjoint_globes(4), "pair4: molecule status unknown"),
        (_o3_edited(_cut_2_minus), "O3: precedence is not total on this subset"),
        (_o3_edited(_flip_1_minus), "O3: precedence is not total on this subset"),
    ],
    ids=[
        "paste", "compos", "svg-dimension", "svg-two-sources", "compos-two-arrows", "compos-two-4-globes",
        "interpret-cut-cover", "interpret-flipped-sign",
    ],
)
def test_cli_semantic_failures_exit_1_with_one_line(fixture_dir, tmp_path, capsys, argv, message):
    assert main(argv(fixture_dir, tmp_path)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


@pytest.mark.parametrize("edit", [_cut_2_minus, _flip_1_minus])
def test_interpret_of_a_non_regular_atom_is_an_expression_error(fixture_dir, edit):
    cx, _ = parse_complex(_o3_doc(fixture_dir, edit))
    with pytest.raises(ExpressionError, match="O3: precedence is not total"):
        interpret(whole(cx))


def test_cli_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid JSON: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_maxd_at_a_negative_level(fixture_dir, capsys):
    assert main(["maxd", str(fixture_dir / "u21.json"), "--", "-9"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert main(["maxd", str(fixture_dir / "u21.json"), "--", "-1"]) == 0
    assert captured.out.replace("maxd-9", "maxd-1") == capsys.readouterr().out


def test_cli_fixtures_lists(capsys):
    assert main(["fixtures"]) == 0
    names = capsys.readouterr().out.split()
    assert "frob.json" in names and "power.json" in names


def test_cli_fixtures_writes_the_fixture_files(tmp_path, capsys):
    out = tmp_path / "fixtures"
    assert main(["fixtures", "--out", str(out)]) == 0
    files = fixture_files()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files
    assert capsys.readouterr().out.splitlines() == [f"wrote {out / name}" for name in files]


def test_readme_file_format_example_is_the_o1_fixture():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("## File formats", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert block.encode("utf-8") == fixture_files()["o1.json"]


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
