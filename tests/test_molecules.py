import inspect
import sys

import pytest

from pastekit import (
    Atom,
    Complex,
    MINUS,
    Molecule,
    PLUS,
    Pasting,
    PastingError,
    SubstitutionError,
    UNKNOWN,
    cell_to,
    certificate_json,
    certificate_ok,
    compos,
    enumerate_molecules,
    globe,
    globe_molecule,
    interval_chain,
    paste,
    recognize,
    spherical,
    substitute,
    u_cell,
    unique_iso,
    validate_complex,
)
from pastekit import molecules
from pastekit.molecules import _mismatch

from conftest import random_molecule


def test_globe_counts():
    assert len(globe(0)) == 1
    o2 = globe(2)
    assert len(o2) == 5
    assert o2.source_set(o2.whole(), 1, MINUS) == {"1-"}
    assert len(globe(3)) == 7
    assert validate_complex(globe(3)).passed
    with pytest.raises(ValueError, match="^globe dimension must be >= 0$"):
        globe(-1)


def test_interval_chain_examples():
    i1 = interval_chain(1)
    assert unique_iso(i1, globe_molecule(1)) is not None
    assert len(interval_chain(2)) == 5
    i3 = interval_chain(3)
    last = i3.boundary(0, PLUS)
    assert len(last) == 1
    assert i3.complex.dim_of(next(iter(last))) == 0
    with pytest.raises(ValueError, match="^interval chains need at least one arrow$"):
        interval_chain(0)


def test_interval_chain_builds_one_complex_for_the_chain(monkeypatch):
    built, matched = [], []
    init, iso = Complex.__init__, molecules.unique_iso

    def counting_init(self, name, elements):
        built.append(name)
        init(self, name, elements)

    def counting_iso(u, v):
        matched.append((len(u[1]), len(v[1])))
        return iso(u, v)

    monkeypatch.setattr(Complex, "__init__", counting_init)
    monkeypatch.setattr(molecules, "unique_iso", counting_iso)
    for n in (2, 3, 40):
        built.clear()
        matched.clear()
        u = interval_chain(n)
        # the arrow that is repeated, then the chain
        assert built == ["O1", u.complex.name]
        # each arrow's source matched with the target of the arrow before
        assert matched == [(1, 1)] * (n - 1)


def test_paste_examples():
    assert len(paste(globe_molecule(1), globe_molecule(1), 0)) == 5
    two = paste(u_cell(2, 1), u_cell(2, 1), 0)
    assert len(two) == 13
    assert sum(1 for x in two.members if two.complex.dim_of(x) == 2) == 2
    mixed = paste(u_cell(2, 1), u_cell(1, 2), 1)
    assert validate_complex(mixed.complex).passed


def test_paste_element_count_formula(rng):
    for _ in range(10):
        u = random_molecule(rng, max_dim=2)
        k = u.dim - 1
        b = recognize(u.complex, u.boundary(k, PLUS))
        if b is None or b is UNKNOWN or not spherical(b):
            continue
        cap = cell_to(b, b)
        glued = paste(u, cap, k)
        assert len(glued) == len(u) + len(cap) - len(u.boundary(k, PLUS))


def test_paste_mismatch_reports_stratum():
    with pytest.raises(PastingError, match="stratum"):
        paste(u_cell(2, 1), u_cell(2, 1), 1)


def test_cell_to_and_substitute_report_the_mismatched_stratum():
    # a 2-wire input boundary against a 3-wire one: 5 against 7 elements,
    # whose counts first differ in dimension 0 (3 against 4 points)
    with pytest.raises(PastingError) as err:
        cell_to(u_cell(2, 1), u_cell(3, 1))
    assert str(err.value) == (
        "cell_to: --boundaries of ((O1#0O1)=>O1) and (((O1#0O1)#0O1)=>O1) differ "
        "(first mismatch in stratum 0 (3 vs 4 elements), sizes 5 vs 7)"
    )
    u = u_cell(2, 1)
    with pytest.raises(
        SubstitutionError,
        match=r"^--boundaries of site and replacement differ \(first mismatch in stratum 0 \(4 vs 3 elements\), sizes 7 vs 5\)$",
    ):
        substitute(u, u.members, u_cell(3, 1))


def test_mismatch_with_equal_counts_says_so():
    # a chain of two arrows and two arrows into one point: not isomorphic,
    # with 3 points and 2 arrows each
    points = {x: (0, []) for x in "abc"}
    chain = Complex("chain", {**points, "f": (1, [("a", MINUS), ("b", PLUS)]), "g": (1, [("b", MINUS), ("c", PLUS)])})
    cospan = Complex("cospan", {**points, "f": (1, [("a", MINUS), ("b", PLUS)]), "g": (1, [("c", MINUS), ("b", PLUS)])})
    assert unique_iso((chain, chain.whole()), (cospan, cospan.whole())) is None
    assert _mismatch(chain, chain.whole(), cospan, cospan.whole()) == (
        "element counts agree in every stratum, sizes 5 vs 5"
    )


def test_paste_associative_up_to_iso():
    a, b, c = u_cell(2, 1), u_cell(1, 2), u_cell(2, 2)
    left = paste(paste(a, b, 0), c, 0)
    right = paste(a, paste(b, c, 0), 0)
    assert unique_iso(left, right) is not None


def test_cell_to_examples():
    u21 = cell_to(interval_chain(2), interval_chain(1))
    assert len(u21) == 7
    o2ish = cell_to(interval_chain(1), interval_chain(1))
    assert unique_iso(o2ish, globe_molecule(2)) is not None
    # element count of the generic 2-atom: the two chains share their two
    # endpoints, plus the new top cell
    u32 = cell_to(interval_chain(3), interval_chain(2))
    assert len(u32) == (2 * 3 + 1) + (2 * 2 + 1) - 2 + 1 == 11


def test_cell_to_checks_boundaries():
    assert spherical(cell_to(interval_chain(2), interval_chain(3)))
    with pytest.raises(PastingError, match="spherical"):
        cell_to(paste(u_cell(1, 1), interval_chain(1), 0), u_cell(2, 1))
    with pytest.raises(PastingError, match="^cell_to requires molecules of equal dimension$"):
        cell_to(interval_chain(1), globe_molecule(2))
    # a loop of two arrows passes the spherical test with both 0-boundaries
    # empty, so a cell over it would have no face
    points = {"p": (0, []), "q": (0, [])}
    loop = Complex("loop", {**points, "a": (1, [("p", MINUS), ("q", PLUS)]), "b": (1, [("q", MINUS), ("p", PLUS)])})
    handle = Molecule(loop, loop.whole(), Atom("a"))
    assert spherical(handle)
    with pytest.raises(PastingError, match="^cell_to would create a cell with no faces$"):
        compos(handle)


@pytest.mark.parametrize(
    "fake",
    [
        lambda a, b: dict(zip(sorted(a[1]), sorted(b[1], reverse=True))),  # the two halves disagree on '0+'
        lambda a, b: {x: min(b[1]) for x in a[1]},  # every element goes to '0+'
    ],
    ids=["disagree", "collide"],
)
def test_boundary_isomorphisms_must_join_into_one_bijection(monkeypatch, fake):
    # cell_to glues along the union of the isomorphisms of both 1-boundaries
    # of a 2-globe; a union that is no bijection is refused, not glued
    monkeypatch.setattr(molecules, "unique_iso", fake)
    with pytest.raises(RuntimeError, match="^boundary isomorphisms disagree on the shared sphere$"):
        cell_to(globe_molecule(2), globe_molecule(2))


def test_handles_print_and_compare():
    i2 = paste(globe_molecule(1), globe_molecule(1), 0)
    assert repr(i2) == "Molecule('(O1#0O1)', 5 elements, dim 1, pasting@0)"
    assert repr(globe_molecule(2)) == "Molecule('O2', 5 elements, dim 2, atom)"
    assert repr(i2.complex) == "Complex('(O1#0O1)', 5 elements, dim 1)"
    assert i2.certificate != 3
    side_by_side = paste(u_cell(1, 1), u_cell(1, 1), 0)
    for u, want in ((i2, True), (side_by_side, False)):
        assert spherical((u.complex, u.members)) is spherical(u) is want


def test_cell_to_boundaries_are_the_inputs():
    u, v = interval_chain(2), interval_chain(3)
    a = cell_to(u, v)
    assert spherical(a)
    lo = a.boundary(1, MINUS)
    hi = a.boundary(1, PLUS)
    assert unique_iso((a.complex, lo), u) is not None
    assert unique_iso((a.complex, hi), v) is not None


def test_compos_examples():
    o2 = globe_molecule(2)
    assert unique_iso(compos(o2), o2) is not None
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    assert unique_iso(compos(q), u_cell(2, 2)) is not None
    assert unique_iso(compos(interval_chain(2)), globe_molecule(1)) is not None


def test_spherical_examples():
    assert spherical(globe_molecule(2))
    assert spherical(interval_chain(2))
    from pastekit.fixtures import power

    u = power().molecule
    bd = recognize(u.complex, u.boundary(2, MINUS))
    assert bd is not None and bd is not UNKNOWN and spherical(bd)


def test_unique_iso_examples():
    i2a = interval_chain(2)
    i2b = paste(globe_molecule(1), globe_molecule(1), 0)
    iso = unique_iso(i2a, i2b)
    assert iso is not None and len(iso) == 5
    assert unique_iso(interval_chain(2), interval_chain(3)) is None
    flipped = u_cell(1, 2).complex.dual(dims={2})
    assert unique_iso(u_cell(2, 1), (flipped, flipped.whole())) is not None


def test_unique_iso_identity_and_stability(rng):
    for _ in range(10):
        u = random_molecule(rng, max_elements=25)
        iso = unique_iso(u, u)
        assert iso == {x: x for x in u.members}
        # a relabelled copy must produce the same mapping regardless of the
        # id order the search visits
        salt = rng.randrange(1000)
        relabel = {x: f"n{salt}/{x}" for x in u.complex.elements()}
        copy = u.complex.relabel(relabel)
        found = unique_iso(u, (copy, copy.whole()))
        assert found == {x: relabel[x] for x in u.members}


@pytest.mark.parametrize("w", [16, 24])
def test_paste_along_a_wide_seam(w):
    # a bounded number of refinement rounds cannot tell the middle wires of
    # the seam apart; the search must find its one matching without
    # enumerating the candidates that fail
    top, bottom = u_cell(3, w), u_cell(w, 3)
    glued = paste(top, bottom, 1)
    assert len(glued) == len(top) + len(bottom) - (2 * w + 1) == 2 * w + 13
    assert certificate_ok(glued)


def test_unique_iso_reports_a_second_isomorphism():
    arrow = [("0-", MINUS), ("0+", PLUS)]
    cx = Complex("parallel", {"0-": (0, []), "0+": (0, []), "a": (1, arrow), "b": (1, arrow)})
    with pytest.raises(RuntimeError, match="not unique"):
        unique_iso((cx, cx.whole()), (cx, cx.whole()))


def test_substitute_identity():
    u21 = u_cell(2, 1)
    site = u21.complex.boundary(u21.members, 1, MINUS)
    out = substitute(u21, site, interval_chain(2))
    assert unique_iso(out, u21) is not None


def test_substitute_whole_molecule_is_composition():
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    out = substitute(q, q.members, compos(q))
    assert unique_iso(out, u_cell(2, 2)) is not None


def test_substitute_roundtrip(rng):
    for _ in range(5):
        u = random_molecule(rng, max_dim=2)
        if u.dim != 2 or not spherical(u):
            continue
        collapsed = substitute(u, u.members, compos(u))
        assert collapsed.right_map is not None
        image = frozenset(collapsed.right_map[y] for y in compos(u).members)
        back = substitute(collapsed, image, u)
        assert unique_iso(back, u) is not None


def test_substitute_rejects_boundary_mismatch():
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    with pytest.raises(SubstitutionError):
        substitute(q, q.members, u_cell(3, 1))


def test_substitute_refuses_a_site_it_cannot_replace():
    u = u_cell(2, 1)
    cx = u.complex
    wire = cx.closure(["right/1"])
    ends = cx.boundary(u.members, 0)  # two points, no molecule
    o2 = u_cell(1, 1)
    # a hand-built handle on a 3-chain that leaves out the first arrow's points
    i3 = interval_chain(3)
    last = i3.complex.closure(["right/1"])
    open_chain = Molecule(i3.complex, last | {"left/left/1"}, Atom("right/1"))
    # a hand-built handle on two disjoint 4-globes, which recognition cannot tell
    o4 = globe(4)
    pair = Complex(
        "pair4", {f"{g}{x}": (o4.dim_of(x), [(f"{g}{y}", s) for y, s in o4.covers(x)]) for g in "ab" for x in o4}
    )
    two_globes = Molecule(pair, pair.whole(), Atom("a4"))
    whisker = paste(o2, globe_molecule(1), 0)
    for target, site, w, message in (
        (u, u.members | {"ghost"}, u, "substitution site is not inside the molecule"),
        (u, frozenset({"top"}), u, "substitution site is not closed"),
        (u, wire, u, "site and replacement must share their top dimension"),
        (u, ends, u, "substitution site is not a molecule"),
        (o2, o2.members, paste(o2, o2, 0), "substitution requires spherical boundaries"),
        # the cell is attached to the wire's inside, and two wires are no copy of one
        (
            o2,
            o2.boundary(1, MINUS),
            interval_chain(2),
            "context is attached to the interior of the site and the replacement is not an isomorphic copy",
        ),
        (
            open_chain,
            last,
            globe_molecule(1),
            r"substitution produced a broken poset: \(\(O1#0O1\)#0O1\)\[sub\]: "
            "element 'left/left/left/1' of dimension 1 covers nothing",
        ),
        (two_globes, pair.closure(["a4"]), globe_molecule(4), r"substitution result not recognised \(dimension above 3\)"),
        # the whiskered wire is part of both 1-boundaries, which a longer wire changes
        (whisker, whisker.complex.closure(["right/1"]), interval_chain(2), "substitution changed the outer boundary"),
    ):
        with pytest.raises(SubstitutionError, match=f"^{message}$"):
            substitute(target, site, w)


def test_recognize_atom_and_pasting():
    u21 = u_cell(2, 1)
    got = recognize(u21.complex, u21.complex.closure(["top"]))
    assert isinstance(got.certificate, Atom)
    i2 = interval_chain(2)
    got = recognize(i2.complex, i2.members)
    assert isinstance(got.certificate, Pasting) and got.certificate.k == 0


def test_recognize_refuses_a_subset_that_is_not_closed():
    u21 = u_cell(2, 1)
    with pytest.raises(ValueError, match="recognition expects a closed subset"):
        recognize(u21.complex, frozenset({"top"}))


def test_recognize_rejects_disjoint_wires():
    from pastekit import Complex

    cx = Complex(
        "pair",
        {
            "a0": (0, []),
            "a1": (0, []),
            "b0": (0, []),
            "b1": (0, []),
            "e": (1, [("a0", MINUS), ("a1", PLUS)]),
            "f": (1, [("b0", MINUS), ("b1", PLUS)]),
        },
    )
    assert recognize(cx, cx.whole()) is None


def test_recognize_roundtrip_on_random(rng):
    for _ in range(25):
        u = random_molecule(rng)
        got = recognize(u.complex, u.members)
        assert got is not None and got is not UNKNOWN
        assert got.members == u.members


def test_certificate_serialization():
    i2 = interval_chain(2)
    doc = certificate_json(i2)
    assert doc["paste"]["k"] == 0
    assert set(doc["paste"]["left"]) == {"atom"}


def test_enumerate_molecules_examples():
    got, truncated = enumerate_molecules(globe(1))
    assert not truncated and len(got) == 3
    got, _ = enumerate_molecules(interval_chain(2).complex)
    assert len(got) == 6
    got, _ = enumerate_molecules(globe(2))
    assert len(got) == 5


def test_enumerate_molecules_against_subset_oracle():
    # oracle: every closed subset that recognises as a molecule, found by
    # brute force over the powerset of atoms' closures
    from itertools import combinations

    cx = paste(u_cell(2, 1), u_cell(1, 2), 1).complex
    found = {m.members for m in enumerate_molecules(cx)[0]}
    ids = cx.elements()
    oracle = set()
    for r in range(1, len(ids) + 1):
        for combo in combinations(ids, r):
            members = cx.closure(combo)
            if members in oracle or members in found:
                pass
            got = recognize(cx, members)
            if got is not None and got is not UNKNOWN:
                oracle.add(members)
    assert found == oracle


def test_enumerate_respects_budget():
    got, truncated = enumerate_molecules(interval_chain(5).complex, max_count=4)
    assert truncated and len(got) == 4


def test_certificates_verify_recursively(rng):
    for _ in range(15):
        u = random_molecule(rng, max_elements=30)
        assert certificate_ok(u)
        rebuilt = recognize(u.complex, u.members)
        assert certificate_ok(rebuilt)


def test_certificate_ok_rejects_wrong_trees():
    u = interval_chain(3)
    cert = u.certificate
    assert certificate_ok(u)
    for bad in (
        Pasting(0, cert.right, cert.left),  # halves in the wrong order
        Pasting(1, cert.left, cert.right),  # wrong pasting level
        cert.left,  # certifies a proper subset
        Atom("ghost"),  # not an element
    ):
        assert not certificate_ok(Molecule(u.complex, u.members, bad))


def _beside_a_point(u: Molecule) -> tuple[Complex, frozenset[str]]:
    """The complex of ``u`` with one more point, joined to nothing."""
    cx = u.complex
    table = {x: (cx.dim_of(x), cx.covers(x)) for x in cx.elements()}
    table["lone"] = (0, [])
    out = Complex(f"{cx.name}+pt", table)
    return out, out.whole()


def test_certificate_walks_do_not_recurse_per_node():
    u = interval_chain(300)  # its certificate is 299 pasting nodes deep
    twin = interval_chain(300)
    # two sources, so no single order: the search matches 602 elements deep
    loose, loose_twin = _beside_a_point(u), _beside_a_point(twin)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        assert certificate_ok(u)
        assert certificate_json(u)["paste"]["k"] == 0
        longer = paste(u, globe_molecule(1), 0)
        iso = unique_iso(u, twin)  # paired along the one order
        searched = unique_iso(loose, loose_twin)
        same = u.certificate == twin.certificate
        differ = u.certificate != longer.certificate
        hashes = hash(u.certificate), hash(twin.certificate)
        text = repr(u.certificate)
    finally:
        sys.setrecursionlimit(limit)
    assert same and differ and hashes[0] == hashes[1]
    assert text.count("Pasting(k=0, left=") == 299 and text.count("Atom(top=") == 300
    pair = paste(globe_molecule(1), globe_molecule(1), 0).certificate
    assert repr(pair) == "Pasting(k=0, left=Atom(top='left/1'), right=Atom(top='right/1'))"
    assert len(longer.members) == len(u.members) + 2
    assert iso is not None and len(iso) == len(u.members)
    assert searched == {**iso, "lone": "lone"}


def test_matching_two_chains_refines_no_fingerprints(monkeypatch):
    calls = []
    fingerprints = molecules._fingerprints
    monkeypatch.setattr(molecules, "_fingerprints", lambda *args: calls.append(args) or fingerprints(*args))
    for n in (2, 40, 300):
        u = interval_chain(n)
        cx = u.complex
        twin = cx.relabel({x: f"t{i}" for i, x in enumerate(reversed(cx.elements()))})
        iso = unique_iso(u, (twin, twin.whole()))
        assert iso is not None and len(iso) == len(u.members)
        assert not calls
    # beside a point there is no single order, and the search refines them
    short = interval_chain(2)
    assert unique_iso(_beside_a_point(short), _beside_a_point(short)) is not None and calls


def test_recognition_depth_does_not_grow_with_the_chain(tmp_path, capsys):
    from pastekit.cli import main
    from pastekit.serialize import serialize_complex

    # 300 arrows end to end, as an element table: recognition splits off one
    # arrow at a time, 299 splits deep
    table = {f"v{i:03d}": (0, []) for i in range(301)}
    table.update({f"a{i:03d}": (1, [(f"v{i:03d}", MINUS), (f"v{i + 1:03d}", PLUS)]) for i in range(300)})
    cx = Complex("chain300", table)
    path = tmp_path / "chain300.json"
    path.write_bytes(serialize_complex(cx))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        u = recognize(cx, cx.whole())
        assert isinstance(u, Molecule) and u.members == cx.whole() and certificate_ok(u)
        assert main(["compos", str(path)]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert '"top"' in capsys.readouterr().out


def test_paste_associative_at_level_one():
    a = u_cell(2, 1)
    b = u_cell(1, 3)
    c = u_cell(3, 2)
    left = paste(paste(a, b, 1), c, 1)
    right = paste(a, paste(b, c, 1), 1)
    assert unique_iso(left, right) is not None


def test_sign_flip_is_an_involution():
    from pastekit.ogp import flip

    for s in (MINUS, PLUS):
        assert flip(flip(s)) == s
    with pytest.raises(ValueError):
        flip("?")


def test_named_gluing_rejects_a_name_on_two_elements():
    from pastekit.fixtures import NamedMolecule, _cell_to, _named, _paste

    o1 = globe_molecule(1)
    # the gluing identifies the first arrow's target with the second's source
    joined = _paste(NamedMolecule(o1, {"v": "0+"}), NamedMolecule(o1, {"v": "0-"}), 0)
    assert joined["v"] == joined.molecule.left_map["0+"]
    with pytest.raises(ValueError, match="'a' tracked to two elements"):
        _paste(_named(o1, "a"), _named(o1, "a"), 0)
    with pytest.raises(ValueError, match="'a' tracked to two elements"):
        _cell_to(_named(u_cell(1, 1), "a"), _named(u_cell(1, 1)), "a")
