"""Mutated shipped documents through every parser and every CLI subcommand.

Each example takes a shipped fixture (or, for labelled complexes and
expressions, a document the library writes) and applies one to three random
edits.  Most edits keep the document well-typed, so that about half of the
mutated complexes still parse: a cover turns to another element of the right
dimension, a string takes the place of another string in the same role (so a
sign becomes the other sign), or an integer moves by one.  The rest drop or
repeat a list item, or retype a value.  A parser must return or refuse the
document with `ParseError` or `StructureError`, also when what it read fails
its own check (a presentation's relations, a labelled complex's labels).  The
CLI must exit 0, 1 or 2 with at most one line on stderr and no traceback, over
argument lists that argparse accepts and ones it refuses.  The examples are
drawn from a fixed seed (``derandomize``), so every run tries the same
documents.
"""
from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastekit import StructureError, interpret
from pastekit.cli import main
from pastekit.fixtures import fixture_files, frob
from pastekit.serialize import (
    ParseError,
    parse_complex,
    parse_diag_presentation,
    parse_expr,
    parse_labelled,
    parse_presentation,
    serialize_expr,
)

FILES = {name: json.loads(blob) for name, blob in fixture_files().items()}
COMPLEXES = sorted(name for name, doc in FILES.items() if "elements" in doc)
PRESENTATIONS = sorted(name for name, doc in FILES.items() if "generators" in doc)
DIAGRAMS = sorted(name for name, doc in FILES.items() if "cells" in doc)
# the labelled cell shapes of the diagrammatic presentations
LABELLED = [cell["shape"] for name in DIAGRAMS for cell in FILES[name]["cells"]]
FROB = frob().molecule.complex
EXPR = json.loads(serialize_expr(interpret(frob().molecule)))

# most edits keep the document well-typed, so that it still parses more often
EDITS = ["cover"] * 4 + ["string"] * 4 + ["int"] * 2 + ["drop"] * 2 + ["repeat", "retype"]
JUNK = [None, True, 0, -1, "", "x", [], {}, [[]]]


def _nodes(doc: Any, path: tuple = ()) -> list[tuple[tuple, Any]]:
    """Every value of a JSON document below the root, with its path."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out += [(path + (key,), value), *_nodes(value, path + (key,))]
    return out


def _role(path: tuple) -> tuple:
    """The object keys on a path, so that an element's id and a cover's id differ."""
    return tuple(p for p in path if isinstance(p, str))


@st.composite
def mutated(draw, doc: Any) -> Any:
    """``doc`` after one to three edits, each at a value drawn from the edited
    document: a cover turns to another element one dimension below the covering
    one, a string takes the place of another string in the same role (a sign
    the other sign, a name another name), an integer moves by one, a list item
    is dropped or repeated, or a value is replaced by one of another type."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(EDITS))
        nodes = _nodes(doc)
        fits = [(p, v) for p, v in nodes if _fits(doc, edit, p, v)]
        if not fits:
            continue
        path, value = draw(st.sampled_from(fits))
        parent, key = _at(doc, path[:-1]), path[-1]
        if edit == "cover":  # to an element not yet covered, so that no target repeats
            coverer = _at(doc, path[:-3])
            covered = [c.get("id") for c in coverer["covers"] if isinstance(c, dict)]
            table = [e for e in _at(doc, path[:-4]) if isinstance(e, dict)]
            below = [e.get("id") for e in table if e.get("dim") == coverer["dim"] - 1]
            fresh = sorted({x for x in below if isinstance(x, str)} - {x for x in covered if isinstance(x, str)})
            parent[key] = draw(st.sampled_from(fresh or [value]))
        elif edit == "string":
            same = sorted({v for p, v in nodes if isinstance(v, str) and _role(p) == _role(path)})
            parent[key] = draw(st.sampled_from(same))
        elif edit == "int":
            parent[key] = value + draw(st.sampled_from([-1, 1]))
        elif edit == "drop":
            del parent[key]
        elif edit == "repeat":
            parent.insert(key, copy.deepcopy(value))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return doc


def _at(doc: Any, path: tuple) -> Any:
    for key in path:
        doc = doc[key]
    return doc


def _fits(doc: Any, edit: str, path: tuple, value: Any) -> bool:
    """Whether ``edit`` applies to the value at ``path``."""
    if edit == "cover":  # a cover's id, in a list of elements whose coverer has an integer dimension
        if len(path) < 5 or path[-3] != "covers" or path[-1] != "id":
            return False
        return isinstance(_at(doc, path[:-4]), list) and type(_at(doc, path[:-3]).get("dim")) is int
    if edit == "string":  # not an element's own id, which another id would duplicate
        return isinstance(value, str) and (path[-1] != "id" or "covers" in path)
    if edit == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if edit == "drop":
        return isinstance(path[-1], int)
    if edit == "repeat":  # not an element or a cover, which would then repeat an id
        return isinstance(path[-1], int) and _role(path)[-1:] not in (("elements",), ("covers",))
    return True


def _blob(doc: Any) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _parses(parse, *args) -> None:
    try:
        parse(*args)
    except (ParseError, StructureError):
        pass


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parsers_return_or_refuse_mutated_documents(data):
    pick = data.draw(st.sampled_from(["complex", "labelled", "presentation", "diagram", "expr"]))
    if pick == "complex":
        _parses(parse_complex, _blob(data.draw(mutated(FILES[data.draw(st.sampled_from(COMPLEXES))]))))
    elif pick == "labelled":
        doc = data.draw(mutated(data.draw(st.sampled_from(LABELLED))))
        _parses(parse_labelled, _blob(doc))
    elif pick == "presentation":
        doc = data.draw(mutated(FILES[data.draw(st.sampled_from(PRESENTATIONS))]))
        _parses(parse_presentation, _blob(doc))
    elif pick == "diagram":
        doc = data.draw(mutated(FILES[data.draw(st.sampled_from(DIAGRAMS))]))
        _parses(parse_diag_presentation, _blob(doc))
    else:
        _parses(parse_expr, _blob(data.draw(mutated(EXPR))), FROB)


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; stdout is discarded."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def _argv(draw, tmp: Path) -> list[str]:
    """A `_command_line`, sometimes with an argument dropped or an unknown
    option added, so that argparse may refuse it."""
    argv = draw(_command_line(tmp))
    change = draw(st.sampled_from(["none"] * 4 + ["drop", "option"]))
    if change == "drop" and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif change == "option":
        argv.insert(draw(st.integers(1, len(argv))), "--no-such-option")
    return argv


@st.composite
def _command_line(draw, tmp: Path) -> list[str]:
    """A subcommand's argument list over files of mutated documents written
    into ``tmp``; a second operand is a shipped one.  A level is sometimes not
    an integer, which argparse refuses."""

    def write(name: str, doc: Any) -> str:
        path = tmp / name
        path.write_bytes(_blob(doc))
        return str(path)

    def mutated_file(names: list[str]) -> str:
        return write("mutated.json", draw(mutated(FILES[draw(st.sampled_from(names))])))

    def some_ids() -> str:  # a comma-separated list of frob's ids, for interpret --order
        return ",".join(draw(st.lists(st.sampled_from(FROB.elements()), max_size=3)))

    def shipped(names: list[str]) -> str:
        return write("shipped.json", FILES[draw(st.sampled_from(names))])

    def labelled_file(name: str) -> str:
        return write(name, draw(mutated(draw(st.sampled_from(LABELLED)))))

    level = draw(st.sampled_from([*map(str, range(-2, 5)), "one"]))
    command = draw(st.sampled_from(COMMANDS))
    if command == "validate":
        return [command, mutated_file(COMPLEXES)]
    if command == "boundary":
        sign = draw(st.sampled_from(["-", "+", "both"]))
        ids_only = draw(st.sampled_from([[], ["--ids-only"]]))
        return [command, mutated_file(COMPLEXES), "-n", level, "-s", sign, *ids_only]
    if command == "paste":
        return [command, "--", level, mutated_file(COMPLEXES), shipped(SMALL)]
    if command == "atom":
        kind = draw(st.sampled_from(["globe", "interval", "ucell"]))
        arities = draw(st.lists(st.integers(-2, 4), min_size=1, max_size=2))
        return [command, kind, "--", *map(str, arities)]
    if command == "compos":
        return [command, mutated_file(COMPLEXES)]
    if command == "interpret":
        return [command, mutated_file(COMPLEXES), *draw(st.sampled_from([[], ["--order", some_ids()]]))]
    if command == "export":
        return [command, mutated_file(COMPLEXES), "--format", draw(st.sampled_from(["dot", "svg"]))]
    if command == "gray":
        if draw(st.booleans()):
            return [command, labelled_file("left.json"), labelled_file("right.json"), "--labelled"]
        return [command, mutated_file(COMPLEXES), shipped(SMALL)]
    if command == "smash":
        return [command, labelled_file("left.json"), labelled_file("right.json")]
    if command == "tensor":
        return [command, mutated_file(PRESENTATIONS), shipped(PRESENTATIONS)]
    if command == "maxd":
        return [command, mutated_file(COMPLEXES), "--", level]
    return [command, *draw(st.sampled_from([[], ["--out", str(tmp / "out")]]))]


COMMANDS = [
    "validate", "boundary", "paste", "atom", "compos", "gray", "smash", "tensor", "interpret", "maxd", "export",
    "fixtures",
]
# a second operand stays small, so that products and pastings stay quick
SMALL = ["i1.json", "o1.json", "o2.json"]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> Path:
    """The folder each example writes its documents into."""
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_subcommands_end_with_an_exit_code_and_one_line(files, data):
    argv = data.draw(_argv(files))
    code, err = _run(argv)
    assert code in (0, 1, 2), argv
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
