"""Shipped shapes: globes, interval chains, two-cell atoms, and the two
worked 3-dimensional fixtures used across the test suite.

``frob()`` is a 3-molecule with two independent rewrites over a zigzag of
four 2-cells; its interpretation exercises the interchanger machinery.
``power()`` is a chain of four rewrites whose two 3-cell pairs overlap only
on boundaries yet cannot both be collapsed: the classical failure of
simultaneous substitution in dimension 3.

Builders return the molecule together with a name table mapping the
human-readable cell names to element ids of the ambient complex.
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


def _via(names: dict[str, str], glued: Molecule, side: str) -> dict[str, str]:
    amap = glued.left_map if side == "left" else glued.right_map
    assert amap is not None
    return {k: amap[v] for k, v in names.items()}


def _merge(*tables: dict[str, str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for t in tables:
        for k, v in t.items():
            if k in out and out[k] != v:
                raise ValueError(f"fixture name {k!r} tracked to two elements")
            out[k] = v
    return out


def _top_of(m: Molecule) -> str:
    tops = [x for x in m.members if m.complex.dim_of(x) == m.dim]
    if len(tops) != 1:
        raise ValueError("expected a single top cell")
    return tops[0]


def frob() -> NamedMolecule:
    """Two-step rewrite of a four-cell zigzag; 2-cells x, z, w, y rewrite in
    pairs {z, w} -> {z', w'} (cell phi) and {x, y} -> {x', y'} (cell psi)."""
    o1 = globe_molecule(1)
    u21 = lambda: u_cell(2, 1)
    u12 = lambda: u_cell(1, 2)

    # phi: (a . z) ; (w . c)  =>  z' ; w'
    m1_lo = paste(o1, u12(), 0)  # a . z
    m1_hi = paste(u21(), o1, 0)  # w . c
    m1 = paste(m1_lo, m1_hi, 1)
    m1_names = _merge(
        _via(_via({"z": "top"}, m1_lo, "right"), m1, "left"),
        _via(_via({"w": "top"}, m1_hi, "left"), m1, "right"),
    )
    m2 = paste(u21(), u12(), 1)
    m2_names = _merge(
        _via({"z'": "top"}, m2, "left"), _via({"w'": "top"}, m2, "right")
    )
    a_phi = cell_to(m1, m2)
    phi_names = _merge(
        {"phi": "top"}, _via(m1_names, a_phi, "left"), _via(m2_names, a_phi, "right")
    )

    # psi: (x . d) ; (b . y)  =>  x' ; y'
    m3_lo = paste(u12(), o1, 0)  # x . d
    m3_hi = paste(o1, u21(), 0)  # b . y
    m3 = paste(m3_lo, m3_hi, 1)
    m3_names = _merge(
        _via(_via({"x": "top"}, m3_lo, "left"), m3, "left"),
        _via(_via({"y": "top"}, m3_hi, "right"), m3, "right"),
    )
    m4 = paste(u21(), u12(), 1)
    m4_names = _merge(
        _via({"x'": "top"}, m4, "left"), _via({"y'": "top"}, m4, "right")
    )
    a_psi = cell_to(m3, m4)
    psi_names = _merge(
        {"psi": "top"}, _via(m3_names, a_psi, "left"), _via(m4_names, a_psi, "right")
    )

    # V1 = (a . x . d) ; (a . b . y) ; (A_phi . e)
    l1_inner = paste(o1, u12(), 0)
    l1 = paste(l1_inner, o1, 0)
    l1_names = _via(_via({"x": "top"}, l1_inner, "right"), l1, "left")
    l2_inner = paste(o1, o1, 0)
    l2 = paste(l2_inner, u21(), 0)
    l2_names = _via({"y": "top"}, l2, "right")
    l12 = paste(l1, l2, 1)
    l12_names = _merge(_via(l1_names, l12, "left"), _via(l2_names, l12, "right"))
    phi_wh = paste(a_phi, o1, 0)
    phi_wh_names = _via(phi_names, phi_wh, "left")
    v1 = paste(l12, phi_wh, 1)
    v1_names = _merge(_via(l12_names, v1, "left"), _via(phi_wh_names, v1, "right"))

    # V2 = (a . A_psi) ; (z' . e) ; (w' . e)
    psi_wh = paste(o1, a_psi, 0)
    psi_wh_names = _via(psi_names, psi_wh, "right")
    r1 = paste(u21(), o1, 0)
    r1_names = _via({"z'": "top"}, r1, "left")
    r2 = paste(u12(), o1, 0)
    r2_names = _via({"w'": "top"}, r2, "left")
    r12 = paste(r1, r2, 1)
    r12_names = _merge(_via(r1_names, r12, "left"), _via(r2_names, r12, "right"))
    v2 = paste(psi_wh, r12, 1)
    v2_names = _merge(_via(psi_wh_names, v2, "left"), _via(r12_names, v2, "right"))

    u = paste(v1, v2, 2, name="frob")
    names = _merge(
        _via({k: v for k, v in v1_names.items()}, u, "left"),
        _via({k: v for k, v in v2_names.items() if k not in ("z'", "w'")}, u, "right"),
    )
    return NamedMolecule(u, names)


def power() -> NamedMolecule:
    """Four rewrites l, r, b, t over a theta-shaped diagram; the pairs
    {l, t} and {r, b} only meet on boundaries, but collapsing one blocks the
    other."""
    o1 = globe_molecule(1)
    o2 = lambda: u_cell(1, 1)

    # A_l: l0 => x ; l1
    l_tail = paste(o2(), o2(), 1)
    a_l = cell_to(o2(), l_tail)
    a_l_names = _merge(
        {"lam": "top"},
        _via({"l0": "top"}, a_l, "left"),
        _via(_merge(_via({"x": "top"}, l_tail, "left"), _via({"l1": "top"}, l_tail, "right")), a_l, "right"),
    )
    r_tail = paste(o2(), o2(), 1)
    a_r = cell_to(o2(), r_tail)  # r0 => r1 ; y
    a_r_names = _merge(
        {"rho": "top"},
        _via({"r0": "top"}, a_r, "left"),
        _via(_merge(_via({"r1": "top"}, r_tail, "left"), _via({"y": "top"}, r_tail, "right")), a_r, "right"),
    )

    b0 = u_cell(1, 2)
    t0 = u_cell(2, 1)

    # V1 = b0 ; (A_l . I) ; (I . r0) ; t0
    lam_wh = paste(a_l, o1, 0)
    lam_wh_names = _via(a_l_names, lam_wh, "left")
    r0_wh = paste(o1, o2(), 0)
    r0_wh_names = _via({"r0": "top"}, r0_wh, "right")
    s1 = paste(b0, lam_wh, 1)
    s1_names = _merge(_via({"b0": _top_of(b0)}, s1, "left"), _via(lam_wh_names, s1, "right"))
    s2 = paste(s1, r0_wh, 1)
    s2_names = _merge(_via(s1_names, s2, "left"), _via(r0_wh_names, s2, "right"))
    v1 = paste(s2, t0, 1)
    v1_names = _merge(_via(s2_names, v1, "left"), _via({"t0": _top_of(t0)}, v1, "right"))

    # V2 = b0 ; ((x ; l1) . I) ; (I . A_r) ; t0
    xl = paste(o2(), o2(), 1)
    xl_names = _merge(_via({"x": "top"}, xl, "left"), _via({"l1": "top"}, xl, "right"))
    xl_wh = paste(xl, o1, 0)
    xl_wh_names = _via(xl_names, xl_wh, "left")
    rho_wh = paste(o1, a_r, 0)
    rho_wh_names = _via(a_r_names, rho_wh, "right")
    s1 = paste(u_cell(1, 2), xl_wh, 1)
    s1_names = _merge(_via({"b0": "top"}, s1, "left"), _via(xl_wh_names, s1, "right"))
    s2 = paste(s1, rho_wh, 1)
    s2_names = _merge(_via(s1_names, s2, "left"), _via(rho_wh_names, s2, "right"))
    v2 = paste(s2, u_cell(2, 1), 1)
    v2_names = _merge(_via(s2_names, v2, "left"), _via({"t0": "top"}, v2, "right"))

    # A_b: b0 ; (x . I) ; (I . r1)  =>  b1 ; (I . r2)
    x_wh = paste(o2(), o1, 0)
    sb_1 = paste(u_cell(1, 2), x_wh, 1)
    sb_names = _merge(
        _via({"b0": "top"}, sb_1, "left"),
        _via(_via({"x": "top"}, x_wh, "left"), sb_1, "right"),
    )
    r1_wh = paste(o1, o2(), 0)
    sb = paste(sb_1, r1_wh, 1)
    sb_names = _merge(_via(sb_names, sb, "left"), _via(_via({"r1": "top"}, r1_wh, "right"), sb, "right"))
    r2_wh = paste(o1, o2(), 0)
    tb = paste(u_cell(1, 2), r2_wh, 1)
    tb_names = _merge(_via({"b1": "top"}, tb, "left"), _via(_via({"r2": "top"}, r2_wh, "right"), tb, "right"))
    a_b = cell_to(sb, tb)
    a_b_names = _merge({"beta": "top"}, _via(sb_names, a_b, "left"), _via(tb_names, a_b, "right"))

    # V3 = A_b ; (l1 . I) ; (I . y) ; t0
    l1_wh = paste(o2(), o1, 0)
    y_wh = paste(o1, o2(), 0)
    s1 = paste(a_b, l1_wh, 1)
    s1_names = _merge(_via(a_b_names, s1, "left"), _via(_via({"l1": "top"}, l1_wh, "left"), s1, "right"))
    s2 = paste(s1, y_wh, 1)
    s2_names = _merge(_via(s1_names, s2, "left"), _via(_via({"y": "top"}, y_wh, "right"), s2, "right"))
    v3 = paste(s2, u_cell(2, 1), 1)
    v3_names = _merge(_via(s2_names, v3, "left"), _via({"t0": "top"}, v3, "right"))

    # A_t: (l1 . I) ; (I . y) ; t0  =>  (l2 . I) ; t1
    inner_l = paste(o2(), o1, 0)
    inner_y = paste(o1, o2(), 0)
    st_1 = paste(inner_l, inner_y, 1)
    st_names = _merge(
        _via(_via({"l1": "top"}, inner_l, "left"), st_1, "left"),
        _via(_via({"y": "top"}, inner_y, "right"), st_1, "right"),
    )
    st = paste(st_1, u_cell(2, 1), 1)
    st_names = _merge(_via(st_names, st, "left"), _via({"t0": "top"}, st, "right"))
    inner_l2 = paste(o2(), o1, 0)
    tt = paste(inner_l2, u_cell(2, 1), 1)
    tt_names = _merge(
        _via(_via({"l2": "top"}, inner_l2, "left"), tt, "left"),
        _via({"t1": "top"}, tt, "right"),
    )
    a_t = cell_to(st, tt)
    a_t_names = _merge({"tau": "top"}, _via(st_names, a_t, "left"), _via(tt_names, a_t, "right"))

    # V4 = b1 ; (I . r2) ; A_t
    inner_r2 = paste(o1, o2(), 0)
    b1_s = paste(u_cell(1, 2), inner_r2, 1)
    b1_names = _merge(
        _via({"b1": "top"}, b1_s, "left"),
        _via(_via({"r2": "top"}, inner_r2, "right"), b1_s, "right"),
    )
    v4 = paste(b1_s, a_t, 1)
    v4_names = _merge(_via(b1_names, v4, "left"), _via(a_t_names, v4, "right"))

    u12_ = paste(v1, v2, 2)
    u12_names = _merge(
        _via(v1_names, u12_, "left"),
        _via({k: v for k, v in v2_names.items() if k in ("rho", "r1", "y")}, u12_, "right"),
    )
    u123 = paste(u12_, v3, 2)
    u123_names = _merge(
        _via(u12_names, u123, "left"),
        _via({k: v for k, v in v3_names.items() if k in ("beta", "b1", "r2")}, u123, "right"),
    )
    u = paste(u123, v4, 2, name="power")
    names = _merge(
        _via(u123_names, u, "left"),
        _via({k: v for k, v in v4_names.items() if k in ("tau", "l2", "t1")}, u, "right"),
    )
    return NamedMolecule(u, names)


def fixture_files() -> dict[str, bytes]:
    """All shipped fixtures as canonical JSON blobs, keyed by file name."""
    from .molecules import globe
    from .serialize import (
        serialize_complex,
        serialize_diag_presentation,
        serialize_presentation,
    )
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
    fr = frob()
    out["frob.json"] = serialize_complex(
        fr.molecule.complex,
        {
            "comment": "two independent rewrites of a four-cell zigzag; "
            "interpreting it needs a pair of interchangers",
            "names": dict(sorted(fr.names.items())),
        },
    )
    pw = power()
    out["power.json"] = serialize_complex(
        pw.molecule.complex,
        {
            "comment": "four chained rewrites whose boundary-overlapping pairs "
            "{lam,tau} and {rho,beta} cannot both be collapsed",
            "names": dict(sorted(pw.names.items())),
        },
    )
    out["mon.json"] = serialize_presentation(builtin("Mon"))
    out["comon.json"] = serialize_presentation(builtin("coMon"))
    out["n.json"] = serialize_presentation(builtin("N"))
    out["bialg_expected.json"] = serialize_presentation(builtin("BialgExpected"))
    out["mon_complex.json"] = serialize_diag_presentation(builtin("MonComplex"))
    out["comon_complex.json"] = serialize_diag_presentation(builtin("coMonComplex"))
    return out
