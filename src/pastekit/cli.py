"""Command-line driver.

Exit codes: 0 success, 1 semantic failure (validation, recognition, or a
check coming back negative), 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import NoReturn

from . import fixtures as fx
from . import molecules as mol
from .graycat import format_expr, interpret
from .ogp import Complex, MINUS, PLUS, StructureError, validate_complex
from .orders import maxd, KOrder
from .products import gray_labelled, gray_product, smash_collapse
from .render import export_dot, export_dot_maxd, export_svg_2diagram
from .serialize import (
    ParseError,
    labelled_from,
    parse_complex,
    parse_labelled,
    parse_presentation,
    serialize_complex,
    serialize_labelled,
    serialize_presentation,
)
from .theories import tensor_pros

USAGE_ERROR = 2
SEMANTIC_ERROR = 1


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_complex(path: str) -> tuple[Complex, dict]:
    return parse_complex(_read(path))


def _emit(data: bytes | str) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    sys.stdout.buffer.write(data)


def cmd_validate(args) -> int:
    cx, _ = _load_complex(args.file)
    report = validate_complex(cx)
    for check in report.checks:
        status = "ok" if check.ok else "FAIL"
        print(
            f"{check.element}: dim={check.dim} spherical={check.spherical} "
            f"input={check.input_molecule} output={check.output_molecule} "
            f"globular={check.globular} [{status}]"
        )
    print(f"{cx.name}: {'PASS' if report.passed else 'FAIL'} ({report.unknowns} unknown)")
    return 0 if report.passed else SEMANTIC_ERROR


def cmd_boundary(args) -> int:
    cx, _ = _load_complex(args.file)
    sign = {"-": MINUS, "+": PLUS, "both": None}[args.sign]
    members = cx.boundary(cx.whole(), args.n, sign)
    if args.ids_only:
        for x in sorted(members):
            print(x)
        return 0
    _emit(serialize_complex(cx.restrict(members, f"{cx.name}.bd{args.n}{args.sign}")))
    return 0


def cmd_paste(args) -> int:
    a, _ = _load_complex(args.left)
    b, _ = _load_complex(args.right)
    _emit(serialize_complex(mol.paste(mol.whole(a), mol.whole(b), args.k).complex))
    return 0


def cmd_atom(args) -> int:
    kind = args.kind
    if kind == "globe":
        cx = mol.globe(args.n)
    elif kind == "interval":
        cx = mol.interval_chain(args.n).as_complex(f"I{args.n}")
    elif args.m is None:  # "ucell", the last of argparse's choices
        raise ParseError("ucell needs two arities")
    else:
        cx = mol.u_cell(args.n, args.m).as_complex(f"U{args.n}_{args.m}")
    _emit(serialize_complex(cx))
    return 0


def cmd_compos(args) -> int:
    cx, _ = _load_complex(args.file)
    _emit(serialize_complex(mol.compos(mol.whole(cx)).complex))
    return 0


def cmd_gray(args) -> int:
    if args.labelled:
        a = parse_labelled(_read(args.left))
        b = parse_labelled(_read(args.right))
        _emit(serialize_labelled(gray_labelled(a, b, args.sep)))
    else:
        a, _ = _load_complex(args.left)
        b, _ = _load_complex(args.right)
        _emit(serialize_complex(gray_product(a, b, args.sep)))
    return 0


def cmd_smash(args) -> int:
    a = parse_labelled(_read(args.left))
    b = parse_labelled(_read(args.right))
    _emit(serialize_labelled(smash_collapse(gray_labelled(a, b, args.sep))))
    return 0


def cmd_tensor(args) -> int:
    t = parse_presentation(_read(args.left))
    s = parse_presentation(_read(args.right))
    _emit(serialize_presentation(tensor_pros(t, s, args.sep)))
    return 0


def cmd_interpret(args) -> int:
    cx, extra = _load_complex(args.file)
    u = mol.whole(cx)
    order = None
    if args.order:
        order = KOrder(2, tuple(args.order.split(",")))
    expr = interpret(u, order)
    names = {v: k for k, v in extra.get("names", {}).items()}
    print(format_expr(expr, names))
    return 0


def cmd_maxd(args) -> int:
    cx, _ = _load_complex(args.file)
    g = maxd(cx, cx.whole(), args.n)
    _emit(export_dot_maxd(g, f"{cx.name}.maxd{args.n}"))
    return 0


def cmd_export(args) -> int:
    cx, extra = _load_complex(args.file)
    if args.format == "dot":
        _emit(export_dot(cx))
        return 0
    _emit(export_svg_2diagram(labelled_from(cx, extra) if "labels" in extra else cx))
    return 0


def cmd_fixtures(args) -> int:
    out = Path(args.out) if args.out else None
    for name, blob in fx.fixture_files().items():
        if out is None:
            print(name)
        else:
            out.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(blob)
            print(f"wrote {out / name}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses an argument list in one line, ``prog: error: message``; its subparsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pastekit",
        description="Pasting-diagram combinatorics: validation, gluing, products, theories.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a complex file for cell-shaped elements")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("boundary", help="boundary of the whole complex")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-s", "--sign", choices=["-", "+", "both"], default="both")
    p.add_argument("--ids-only", action="store_true")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("paste", help="glue two molecules along a k-boundary")
    p.add_argument("k", type=int)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_paste)

    p = sub.add_parser("atom", help="emit a basic shape")
    p.add_argument("kind", choices=["globe", "interval", "ucell"])
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?")
    p.set_defaults(func=cmd_atom)

    p = sub.add_parser("compos", help="the atom with the same boundary")
    p.add_argument("file")
    p.set_defaults(func=cmd_compos)

    p = sub.add_parser("gray", help="product of two complexes")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--labelled", action="store_true")
    p.add_argument("--sep", default="⊗")
    p.set_defaults(func=cmd_gray)

    p = sub.add_parser("smash", help="labelled product with wedge fibres collapsed")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--sep", default="⊗")
    p.set_defaults(func=cmd_smash)

    p = sub.add_parser("tensor", help="tensor of two planar theory presentations")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--sep", default="⊗")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("interpret", help="composite assigned to a 3-molecule")
    p.add_argument("file")
    p.add_argument("--order", help="comma-separated 3-cell ids")
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("maxd", help="frame graph at a level, as DOT")
    p.add_argument("file")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_maxd)

    p = sub.add_parser("export", help="DOT or SVG rendering")
    p.add_argument("file")
    p.add_argument("--format", choices=["dot", "svg"], default="dot")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("fixtures", help="list or write the shipped fixtures")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixtures)
    return ap


# parsing leaves no state on the parser, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, StructureError) as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return SEMANTIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
