import pytest

from pastekit import (
    Complex,
    MINUS,
    PLUS,
    StructureError,
    frame_dimension,
    globe,
    maxd,
    recognize,
    u_cell,
    validate_complex,
)
from pastekit.ogp import spherical_boundary


def test_structure_dangling_cover():
    with pytest.raises(StructureError, match="missing"):
        Complex("bad", {"a": (1, [("ghost", MINUS)])})


def test_structure_grading_needs_faces():
    with pytest.raises(StructureError, match="covers nothing"):
        Complex("bad", {"a": (1, [])})


def test_structure_grading_skips_level():
    with pytest.raises(StructureError, match="grading"):
        Complex("bad", {"v": (0, []), "f": (2, [("v", MINUS)])})


def test_structure_no_parallel_edges():
    with pytest.raises(StructureError, match="twice"):
        Complex("bad", {"v": (0, []), "e": (1, [("v", MINUS), ("v", PLUS)])})


def test_structure_signs_are_minus_or_plus():
    with pytest.raises(StructureError, match="element 'e' has invalid sign 'x'"):
        Complex("bad", {"v": (0, []), "e": (1, [("v", "x")])})


def test_restrict_and_relabel_refuse():
    o2 = globe(2)
    with pytest.raises(ValueError, match="O2: cannot restrict to a non-closed subset"):
        o2.restrict(frozenset({"2"}))
    with pytest.raises(ValueError, match="relabelling is not injective"):
        o2.relabel({"0-": "p", "0+": "p"})


def test_closure_examples():
    o2 = globe(2)
    assert o2.closure(["2"]) == frozenset(o2.elements())
    assert o2.closure([]) == frozenset()
    assert o2.closure(["1+"]) == {"1+", "0-", "0+"}
    with pytest.raises(KeyError):
        o2.closure(["nope"])


def test_closure_idempotent_and_monotone():
    u21 = u_cell(2, 1).complex
    small = u21.closure(["top"])
    assert u21.closure(small) == small
    bigger = u21.closure(list(small) + [u21.elements()[0]])
    assert small <= bigger


def test_source_set_examples():
    o2 = globe(2)
    assert o2.source_set(o2.whole(), 1, MINUS) == {"1-"}
    o1 = globe(1)
    assert o1.source_set(o1.whole(), 0, PLUS) == {"0+"}


def test_source_set_vacuous_on_uncovered():
    from pastekit import interval_chain

    i2 = interval_chain(2)
    wires = {x for x in i2.members if i2.complex.dim_of(x) == 1}
    assert i2.complex.source_set(i2.members, 1, MINUS) == wires
    assert i2.complex.source_set(i2.members, 1, PLUS) == wires


def test_boundary_examples():
    o1 = globe(1)
    assert o1.boundary(o1.whole(), 0, MINUS) == {"0-"}
    u21 = u_cell(2, 1)
    out = u21.complex.boundary(u21.members, 1, PLUS)
    assert len(out) == 3
    assert u21.complex.dim_of_subset(out) == 1
    o2 = globe(2)
    assert o2.boundary(o2.whole(), 1, MINUS) == o2.closure(["1-"])


def test_boundary_above_dimension_is_identity():
    u21 = u_cell(2, 1)
    for n in (2, 3, 5):
        for sign in (MINUS, PLUS):
            assert u21.complex.boundary(u21.members, n, sign) == u21.members


def test_boundary_is_closed():
    u = u_cell(3, 2)
    for n in range(3):
        for sign in (MINUS, PLUS, None):
            bd = u.complex.boundary(u.members, n, sign)
            assert u.complex.is_closed(bd)


def test_a_sign_other_than_minus_or_plus_is_refused():
    u = u_cell(2, 1)
    cx = u.complex
    for call in (
        lambda: cx.boundary(u.members, 1, "x"),
        lambda: u.boundary(1, "x"),
        lambda: cx.source_set(u.members, 1, "x"),
    ):
        with pytest.raises(ValueError, match="not a sign: 'x'"):
            call()


def test_oriented_hasse_examples():
    o1 = globe(1)
    adj = o1.oriented_hasse()
    assert adj == {"0-": ("1",), "1": ("0+",), "0+": ()}
    o0 = globe(0)
    assert o0.oriented_hasse() == {"0": ()}
    from pastekit import interval_chain

    i2 = interval_chain(2)
    adj = i2.complex.oriented_hasse()
    edges = sum(len(v) for v in adj.values())
    assert edges == 4 and len(adj) == 5
    # each cover contributes one edge: the 2-globe has three elements with
    # two covers each, hence six edges
    o2 = globe(2)
    assert sum(len(v) for v in o2.oriented_hasse().values()) == 6


def test_dual_examples():
    o1 = globe(1)
    d = o1.dual()
    assert d.covers("1") == (("0-", PLUS), ("0+", MINUS))
    u21 = u_cell(2, 1).complex
    dd = u21.dual().dual()
    assert {x: (dd.dim_of(x), dd.covers(x)) for x in dd} == {
        x: (u21.dim_of(x), u21.covers(x)) for x in u21
    }
    from pastekit import unique_iso

    u12 = u_cell(1, 2)
    flipped = u21.dual(dims={2})
    assert unique_iso((flipped, flipped.whole()), u12) is not None


def test_dual_flips_source_sets():
    u = u_cell(2, 2).complex
    d = u.dual()
    for n in range(3):
        assert d.source_set(d.whole(), n, MINUS) == u.source_set(u.whole(), n, PLUS)
        assert d.source_set(d.whole(), n, PLUS) == u.source_set(u.whole(), n, MINUS)


def test_validate_globe_passes():
    rep = validate_complex(globe(2))
    assert rep.passed and rep.unknowns == 0


def test_validate_flipped_sign_fails():
    o2 = globe(2)
    table = {
        x: (o2.dim_of(x), [(t, s) for t, s in o2.covers(x)]) for x in o2.elements()
    }
    table["2"] = (2, [("1-", PLUS), ("1+", PLUS)])
    rep = validate_complex(Complex("broken", table))
    assert not rep.passed
    bad = {c.element: c for c in rep.failures()}
    assert "2" in bad
    assert bad["2"].input_molecule == "FAIL"


def test_globularity_on_validated_complexes():
    for cx in (globe(3), u_cell(3, 2).complex):
        for x in cx.elements():
            n = cx.dim_of(x)
            if n < 2:
                continue
            cl = cx.closure([x])
            for a in (MINUS, PLUS):
                want = cx.boundary(cl, n - 2, a)
                for b in (MINUS, PLUS):
                    assert cx.boundary(cx.boundary(cl, n - 1, b), n - 2, a) == want


def test_spherical_forces_purity():
    from pastekit import interval_chain, paste, u_cell

    whiskered = paste(u_cell(1, 1), interval_chain(1), 0)
    assert not spherical_boundary(whiskered.complex, whiskered.members)


def test_negative_levels_hold_no_elements():
    o2 = globe(2)
    for n in (-1, -2, -5):
        for sign in (MINUS, PLUS):
            assert o2.source_set(o2.whole(), n, sign) == frozenset()
    u = u_cell(2, 1)
    level = maxd(u.complex, u.members, -1)
    assert level.low == () and level.high == ("top",)
    for n in (-2, -3, -9):
        g = maxd(u.complex, u.members, n)
        assert (g.low, g.high, g.adjacency) == (level.low, level.high, level.adjacency)


@pytest.mark.parametrize(
    "call",
    [
        lambda cx, m: cx.closure(m),
        lambda cx, m: cx.maximal(m),
        lambda cx, m: cx.boundary(m, 0, MINUS),
        lambda cx, m: cx.boundary(m),
        lambda cx, m: cx._boundary_pair(m, 0),
        lambda cx, m: cx.is_closed(m),
        lambda cx, m: cx.source_set(m, 0, PLUS),
        lambda cx, m: recognize(cx, m),
        lambda cx, m: maxd(cx, m, 0),
        lambda cx, m: frame_dimension(cx, m),
    ],
    ids=[
        "closure", "maximal", "boundary", "boundary-n-omitted", "boundary-pair", "is_closed", "source_set", "recognize",
        "maxd", "frame_dimension",
    ],
)
def test_unknown_ids_raise_a_key_error_naming_the_complex(call):
    o2 = globe(2)
    with pytest.raises(KeyError, match="O2: unknown element 'x'"):
        call(o2, o2.whole() | {"x"})
