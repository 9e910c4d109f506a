"""Canonical JSON forms for complexes, presentations, and expressions.

Serialization is deterministic: element ids and covers are sorted, key
order is fixed by each writer, and reserialising a parsed document
reproduces it byte for byte.  Optional ``comment`` and ``names`` fields
survive round trips.  A complex's ``labels`` field is read by one function,
`labelled_from`, for labelled files, diagrammatic presentation cells and
the SVG export.  Every writer goes through `_dump`, whose layout is
``json.dumps(doc, ensure_ascii=False, indent=2)`` and a final newline: a
two-space indent, one value per line, ``[]`` and ``{}`` for empty
containers, and non-ASCII text written as UTF-8.
"""
from __future__ import annotations

import json
from typing import Any, Mapping

from .ogp import Complex
from .products import LabelledComplex, ProductError
from .theories import (
    Braid,
    BraidInv,
    DiagCell,
    DiagComplexPresentation,
    GenOp,
    GenRef,
    Layered2Cell,
    ProPresentation,
    Relation,
    Slice,
    TheoryError,
)
from .graycat import GenApp, GrayExpr3, Interchange, TwoCellNF


class ParseError(ValueError):
    """A document that is malformed, or that describes a presentation or labelled complex failing its own check."""


def _dump(doc: Any) -> bytes:
    """The bytes of ``json.dumps(doc, ensure_ascii=False, indent=2)`` and a newline.

    With an indent, json writes through its pure-Python encoder.  Here each
    key and string goes through json's C string encoder and the separators
    are written directly.  A ``str`` in a container, and an ``int`` in a
    dict, is written in its container's loop; every other value goes through
    `value`.  The recursion is as deep as the document, which `json.loads`
    bounds for anything parsed.
    """
    chunks: list[str] = []
    emit = chunks.append
    enc = json.encoder.encode_basestring

    def value(v: Any, nl: str) -> None:
        if isinstance(v, dict):
            if not v:
                emit("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for k, x in v.items():
                key = enc(k) if type(k) is str else _key(k)
                if type(x) is str:
                    emit(f"{sep}{key}: {enc(x)}")
                elif type(x) is int:
                    emit(f"{sep}{key}: {int.__repr__(x)}")
                else:
                    emit(f"{sep}{key}: ")
                    value(x, inner)
                sep = "," + inner
            emit(nl + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                emit("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for x in v:
                if type(x) is str:
                    emit(sep + enc(x))
                else:
                    emit(sep)
                    value(x, inner)
                sep = "," + inner
            emit(nl + "]")
        else:
            emit(_scalar(v))

    value(doc, "\n")
    emit("\n")
    text = "".join(chunks)
    chunks.clear()  # the pieces go before the bytes are made
    return text.encode("utf-8")


def _scalar(v: Any) -> str:
    """A JSON value that is not a container, spelled as json spells it."""
    if isinstance(v, str):
        return json.encoder.encode_basestring(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        return "NaN" if text == "nan" else text.replace("inf", "Infinity")
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _key(k: Any) -> str:
    """A non-``str`` dict key, turned into a string as json turns it."""
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return json.encoder.encode_basestring(k if isinstance(k, str) else _scalar(k))


def _load(data: bytes | str) -> Any:
    try:
        return json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string, not {value!r}")
    return value


def _int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def _strings(value: Any, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{what} must be a list of strings, not {value!r}")
    return tuple(value)


# -- complexes -------------------------------------------------------------------


def complex_to_doc(cx: Complex, extra: Mapping[str, Any] | None = None) -> dict:
    doc: dict[str, Any] = {"name": cx.name}
    if extra:
        for key in ("comment", "names", "labels"):
            if key in extra:
                doc[key] = extra[key]
    doc["elements"] = [
        {
            "id": x,
            "dim": cx.dim_of(x),
            "covers": [
                {"id": t, "sign": s} for t, s in sorted(cx.covers(x))
            ],
        }
        for x in cx.elements()
    ]
    return doc


def serialize_complex(cx: Complex, extra: Mapping[str, Any] | None = None) -> bytes:
    return _dump(complex_to_doc(cx, extra))


def complex_from_doc(doc: Any) -> tuple[Complex, dict[str, Any]]:
    if not isinstance(doc, dict) or not isinstance(doc.get("elements"), list):
        raise ParseError("expected an object with an 'elements' list")
    name = _str(doc.get("name", "complex"), "complex name")
    table = {}
    for entry in doc["elements"]:
        try:
            eid = entry["id"]
            dim = entry["dim"]
            covers = [(c["id"], c["sign"]) for c in entry.get("covers", [])]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"malformed element entry {entry!r}") from exc
        if not isinstance(eid, str) or not isinstance(dim, int) or isinstance(dim, bool):
            raise ParseError(f"malformed element entry {entry!r}")
        if not all(isinstance(t, str) for t, _ in covers):
            raise ParseError(f"cover ids of {eid!r} must be strings")
        if eid in table:
            raise ParseError(f"duplicate element id {eid!r}")
        table[eid] = (dim, covers)
    extra = {k: doc[k] for k in ("comment", "names", "labels") if k in doc}
    for key in ("names", "labels"):
        field = extra.get(key, {})
        if not isinstance(field, dict) or not all(isinstance(v, str) for v in field.values()):
            raise ParseError(f"{key!r} must be an object mapping strings to strings")
    return Complex(name, table), extra


def parse_complex(data: bytes | str) -> tuple[Complex, dict[str, Any]]:
    return complex_from_doc(_load(data))


def serialize_labelled(lc: LabelledComplex, extra: Mapping[str, Any] | None = None) -> bytes:
    merged = dict(extra or {})
    merged["labels"] = {x: lc.labels[x] for x in lc.shape.elements()}
    return _dump(complex_to_doc(lc.shape, merged))


def labelled_from(cx: Complex, extra: Mapping[str, Any]) -> LabelledComplex:
    """A parsed complex with the ``labels`` map of its extra fields; a missing
    or partial map is a ParseError."""
    labels = extra.get("labels")
    if labels is None:
        raise ParseError("labelled complex needs a 'labels' map")
    try:
        return LabelledComplex(cx, dict(labels))
    except ProductError as exc:
        raise ParseError(str(exc)) from exc


def parse_labelled(data: bytes | str) -> LabelledComplex:
    return labelled_from(*parse_complex(data))


# -- presentations ---------------------------------------------------------------


def _slice_to_doc(s: Slice) -> dict:
    if isinstance(s.op, GenRef):
        op: dict[str, Any] = {"gen": s.op.name}
    elif isinstance(s.op, Braid):
        op = {"braid": [s.op.a, s.op.b]}
    else:
        op = {"braidInv": [s.op.a, s.op.b]}
    return {"pre": list(s.pre), "op": op, "post": list(s.post)}


def _slice_from_doc(doc: Any) -> Slice:
    if not isinstance(doc, dict) or not isinstance(doc.get("op"), dict):
        raise ParseError(f"malformed slice {doc!r}")
    op_doc = doc["op"]
    if "gen" in op_doc:
        op: Any = GenRef(_str(op_doc["gen"], "'gen'"))
    elif "braid" in op_doc or "braidInv" in op_doc:
        kind = "braid" if "braid" in op_doc else "braidInv"
        pair = _strings(op_doc[kind], f"{kind!r} pair")
        if len(pair) != 2:
            raise ParseError(f"{kind!r} pair must be two strings, not {op_doc[kind]!r}")
        op = (Braid if kind == "braid" else BraidInv)(*pair)
    else:
        raise ParseError(f"unknown op {op_doc!r}")
    return Slice(_strings(doc.get("pre"), "'pre'"), op, _strings(doc.get("post"), "'post'"))


def _cell_to_doc(c: Layered2Cell) -> dict:
    return {"source": list(c.source), "slices": [_slice_to_doc(s) for s in c.slices]}


def _cell_from_doc(doc: Any) -> Layered2Cell:
    if not isinstance(doc, dict) or not isinstance(doc.get("slices"), list):
        raise ParseError(f"malformed layered cell {doc!r}")
    slices = tuple(_slice_from_doc(s) for s in doc["slices"])
    return Layered2Cell(_strings(doc.get("source"), "'source'"), slices)


def serialize_presentation(p: ProPresentation) -> bytes:
    doc = {
        "name": p.name,
        "sorts": list(p.sorts),
        "generators": [
            {"name": g.name, "in": list(g.inputs), "out": list(g.outputs)}
            for g in p.generators
        ],
        "relations": [
            {"name": r.name, "lhs": _cell_to_doc(r.lhs), "rhs": _cell_to_doc(r.rhs)}
            for r in p.relations
        ],
        "flags": {"braided": p.braided, "symmetric": p.symmetric},
    }
    return _dump(doc)


def parse_presentation(data: bytes | str) -> ProPresentation:
    doc = _load(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("generators"), list):
        raise ParseError("expected an object with a 'generators' list")
    name = _str(doc.get("name", "theory"), "presentation name")
    gens = []
    for g in doc["generators"]:
        if not isinstance(g, dict) or not isinstance(g.get("name"), str):
            raise ParseError(f"malformed generator {g!r}")
        gens.append(
            GenOp(g["name"], _strings(g.get("in"), f"{g['name']}.in"), _strings(g.get("out"), f"{g['name']}.out"))
        )
    relations = doc.get("relations", [])
    if not isinstance(relations, list) or not all(
        isinstance(r, dict) and isinstance(r.get("name", ""), str) for r in relations
    ):
        raise ParseError("'relations' must be a list of objects with string names")
    flags = doc.get("flags", {})
    if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
        raise ParseError("'flags' must be an object mapping strings to booleans")
    try:
        rels = tuple(
            Relation(r.get("name", f"r{i}"), _cell_from_doc(r["lhs"]), _cell_from_doc(r["rhs"]))
            for i, r in enumerate(relations)
        )
    except KeyError as exc:
        raise ParseError(f"malformed presentation: relation without {exc}") from exc
    sorts = _strings(doc.get("sorts"), "'sorts'")
    try:
        p = ProPresentation(name, sorts, tuple(gens), rels, flags.get("braided", False), flags.get("symmetric", False))
        p.check_relations()
    except TheoryError as exc:
        raise ParseError(str(exc)) from exc
    return p


def serialize_diag_presentation(p: DiagComplexPresentation) -> bytes:
    doc = {
        "name": p.name,
        "cells": [
            {
                "name": c.name,
                "dim": c.dim,
                "shape": complex_to_doc(
                    c.cell.shape, {"labels": {x: c.cell.labels[x] for x in c.cell.shape.elements()}}
                ),
            }
            for c in p.cells
        ],
    }
    return _dump(doc)


def parse_diag_presentation(data: bytes | str) -> DiagComplexPresentation:
    doc = _load(data)
    try:
        cells = []
        for c in doc["cells"]:
            label = labelled_from(*complex_from_doc(c["shape"]))
            cells.append(DiagCell(_str(c["name"], "cell name"), _int(c["dim"], "cell dim"), label))
        return DiagComplexPresentation(_str(doc.get("name", "presentation"), "presentation name"), tuple(cells))
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed diagrammatic presentation: {exc}") from exc


# -- expressions -----------------------------------------------------------------


def serialize_expr(e: GrayExpr3) -> bytes:
    steps = []
    for s in e.steps:
        if isinstance(s, Interchange):
            steps.append(
                {"interchange": {"pos": s.pos, "dir": s.direction, "pair": list(s.pair)}}
            )
        else:
            steps.append(
                {"apply": {"atom": s.atom, "pre": list(s.pre), "post": list(s.post)}}
            )
    doc = {
        "source": {"support": sorted(e.source.support), "order": list(e.source.order)},
        "steps": steps,
    }
    return _dump(doc)


def parse_expr(data: bytes | str, cx: Complex) -> GrayExpr3:
    doc = _load(data)
    try:
        source = doc["source"]
        src = TwoCellNF(frozenset(_strings(source["support"], "'support'")), _strings(source["order"], "'order'"))
        steps: list[Any] = []
        for s in doc["steps"]:
            if "interchange" in s:
                i = s["interchange"]
                pair = _strings(i["pair"], "'pair'")
                steps.append(Interchange(_int(i["pos"], "'pos'"), _str(i["dir"], "'dir'"), pair))
            else:
                a = s["apply"]
                words = _strings(a["pre"], "'pre'"), _strings(a["post"], "'post'")
                steps.append(GenApp(_str(a["atom"], "'atom'"), *words))
        return GrayExpr3(cx, src, tuple(steps))
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed expression: {exc}") from exc
