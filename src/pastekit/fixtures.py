"""Shipped shapes: globes, interval chains, two-cell atoms, and the two
worked 3-dimensional fixtures used across the test suite.

``frob()`` is a 3-molecule with two independent rewrites over a zigzag of
four 2-cells; its interpretation exercises the interchanger machinery.
``power()`` is a chain of four rewrites whose two 3-cell pairs overlap only
on boundaries yet cannot both be collapsed: the classical failure of
simultaneous substitution in dimension 3.

Builders return the molecule together with a name table mapping the
human-readable cell names to element ids of the ambient complex.  Names
follow a gluing only through the named ``_paste``/``_cell_to`` helpers,
which carry each half's names through its origin map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .molecules import Molecule, cell_to, globe_molecule, interval_chain, paste, u_cell


@dataclass(frozen=True)
class NamedMolecule:
    molecule: Molecule
    names: Mapping[str, str]

    def __getitem__(self, name: str) -> str:
        return self.names[name]


def _merge(*tables: Mapping[str, str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for t in tables:
        for k, v in t.items():
            if k in out and out[k] != v:
                raise ValueError(f"fixture name {k!r} tracked to two elements")
            out[k] = v
    return out


def _named(m: Molecule, name: str | None = None) -> NamedMolecule:
    """``m`` with its top cell called ``name``, or with no names; every
    named ``m`` is an atom, whose certificate holds its top cell."""
    return NamedMolecule(m, {} if name is None else {name: m.certificate.top})


def _carry(glued: Molecule, u: NamedMolecule, v: NamedMolecule, *extra: Mapping[str, str]) -> NamedMolecule:
    """``glued`` named by ``extra`` and by the names of its halves ``u`` and
    ``v``, carried through the origin maps."""
    assert glued.left_map is not None and glued.right_map is not None
    left = {k: glued.left_map[x] for k, x in u.names.items()}
    right = {k: glued.right_map[x] for k, x in v.names.items()}
    return NamedMolecule(glued, _merge(*extra, left, right))


def _paste(u: NamedMolecule, v: NamedMolecule, k: int, name: str | None = None) -> NamedMolecule:
    return _carry(paste(u.molecule, v.molecule, k, name), u, v)


def _cell_to(u: NamedMolecule, v: NamedMolecule, top: str) -> NamedMolecule:
    """The cell from ``u`` to ``v``, its new top cell called ``top``."""
    return _carry(cell_to(u.molecule, v.molecule), u, v, {top: "top"})


def frob() -> NamedMolecule:
    """Two-step rewrite of a four-cell zigzag; 2-cells x, z, w, y rewrite in
    pairs {z, w} -> {z', w'} (cell phi) and {x, y} -> {x', y'} (cell psi)."""
    o1 = _named(globe_molecule(1))
    u21 = lambda name: _named(u_cell(2, 1), name)
    u12 = lambda name: _named(u_cell(1, 2), name)
    # phi: (a . z) ; (w . c)  =>  z' ; w'
    lo = _paste(_paste(o1, u12("z"), 0), _paste(u21("w"), o1, 0), 1)
    phi = _cell_to(lo, _paste(u21("z'"), u12("w'"), 1), "phi")
    # psi: (x . d) ; (b . y)  =>  x' ; y'
    lo = _paste(_paste(u12("x"), o1, 0), _paste(o1, u21("y"), 0), 1)
    psi = _cell_to(lo, _paste(u21("x'"), u12("y'"), 1), "psi")
    # V1 = (a . x . d) ; (a . b . y) ; (A_phi . e)
    l12 = _paste(_paste(_paste(o1, u12("x"), 0), o1, 0), _paste(_paste(o1, o1, 0), u21("y"), 0), 1)
    v1 = _paste(l12, _paste(phi, o1, 0), 1)
    # V2 = (a . A_psi) ; (z' . e) ; (w' . e)
    v2 = _paste(_paste(o1, psi, 0), _paste(_paste(u21("z'"), o1, 0), _paste(u12("w'"), o1, 0), 1), 1)
    return _paste(v1, v2, 2, name="frob")


def power() -> NamedMolecule:
    """Four rewrites l, r, b, t over a theta-shaped diagram; the pairs
    {l, t} and {r, b} only meet on boundaries, but collapsing one blocks the
    other."""
    o1 = _named(globe_molecule(1))
    o2 = lambda name: _named(u_cell(1, 1), name)
    b0 = lambda: _named(u_cell(1, 2), "b0")
    t0 = lambda: _named(u_cell(2, 1), "t0")
    upper = lambda u: _paste(u, o1, 0)  # u . I
    lower = lambda u: _paste(o1, u, 0)  # I . u
    chain = lambda *us: us[0] if len(us) == 1 else _paste(chain(*us[:-1]), us[-1], 1)
    # A_l: l0 => x ; l1    A_r: r0 => r1 ; y
    a_l = _cell_to(o2("l0"), chain(o2("x"), o2("l1")), "lam")
    a_r = _cell_to(o2("r0"), chain(o2("r1"), o2("y")), "rho")
    # A_b: b0 ; (x . I) ; (I . r1)  =>  b1 ; (I . r2)
    b1 = lambda: chain(_named(u_cell(1, 2), "b1"), lower(o2("r2")))
    a_b = _cell_to(chain(b0(), upper(o2("x")), lower(o2("r1"))), b1(), "beta")
    # A_t: (l1 . I) ; (I . y) ; t0  =>  (l2 . I) ; t1
    l1y = chain(upper(o2("l1")), lower(o2("y")))
    a_t = _cell_to(chain(l1y, t0()), chain(upper(o2("l2")), _named(u_cell(2, 1), "t1")), "tau")

    v1 = chain(b0(), upper(a_l), lower(o2("r0")), t0())
    v2 = chain(b0(), upper(chain(o2("x"), o2("l1"))), lower(a_r), t0())
    v3 = chain(a_b, upper(o2("l1")), lower(o2("y")), t0())
    v4 = chain(b1(), a_t)
    return _paste(_paste(_paste(v1, v2, 2), v3, 2), v4, 2, name="power")


def fixture_files() -> dict[str, bytes]:
    """All shipped fixtures as canonical JSON blobs, keyed by file name."""
    from .molecules import globe
    from .serialize import serialize_complex, serialize_diag_presentation, serialize_presentation
    from .theories import builtin

    out: dict[str, bytes] = {}
    for n in range(5):
        out[f"o{n}.json"] = serialize_complex(globe(n))
    for n in range(1, 6):
        out[f"i{n}.json"] = serialize_complex(
            interval_chain(n).as_complex(f"I{n}"),
            {"comment": f"chain of {n} arrows pasted end to end"},
        )
    for n, m in ((2, 1), (1, 2), (2, 2), (3, 2)):
        out[f"u{n}{m}.json"] = serialize_complex(
            u_cell(n, m).as_complex(f"U{n}_{m}"),
            {"comment": f"one 2-cell with {n} input and {m} output wires"},
        )
    for fx, comment in (
        (frob(), "two independent rewrites of a four-cell zigzag; interpreting it needs a pair of interchangers"),
        (power(), "four chained rewrites whose boundary-overlapping pairs {lam,tau} and {rho,beta} "
         "cannot both be collapsed"),
    ):
        cx = fx.molecule.complex
        out[f"{cx.name}.json"] = serialize_complex(cx, {"comment": comment, "names": dict(sorted(fx.names.items()))})
    for file, theory in (("mon", "Mon"), ("comon", "coMon"), ("n", "N"), ("bialg_expected", "BialgExpected")):
        out[f"{file}.json"] = serialize_presentation(builtin(theory))
    out["mon_complex.json"] = serialize_diag_presentation(builtin("MonComplex"))
    out["comon_complex.json"] = serialize_diag_presentation(builtin("coMonComplex"))
    return out
