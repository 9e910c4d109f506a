import random
import re

import pytest

from conftest import random_molecule
from pastekit import (
    BASEPOINT,
    Complex,
    LabelledComplex,
    MINUS,
    PLUS,
    ProductError,
    UNKNOWN,
    globe,
    gray_labelled,
    gray_product,
    gray_projections,
    interval_chain,
    smash_collapse,
    smash_generators,
    u_cell,
    unique_iso,
    validate_complex,
)
from pastekit.ogp import FAIL, flip
from pastekit.render import _wire_sequence
from pastekit.serialize import serialize_complex


FACTORS = {
    "O1": globe(1),
    "O2": globe(2),
    "U21": u_cell(2, 1).as_complex("U21"),
}


def test_gray_unit():
    for name, q in FACTORS.items():
        g = gray_product(globe(0), q)
        assert unique_iso((g, g.whole()), (q, q.whole())) is not None


def test_gray_square_boundary_type():
    g = gray_product(globe(1), globe(1))
    assert len(g) == 9
    (top,) = [x for x in g.elements() if g.dim_of(x) == 2]
    assert top == "1⊗1"
    assert _wire_sequence(g, g.boundary(g.whole(), 1, MINUS)) == ["0-⊗1", "1⊗0+"]
    assert _wire_sequence(g, g.boundary(g.whole(), 1, PLUS)) == ["1⊗0-", "0+⊗1"]


def test_gray_dimension_additivity_and_size():
    for p in FACTORS.values():
        for q in FACTORS.values():
            g = gray_product(p, q)
            assert len(g) == len(p) * len(q)
            for x in p.elements():
                for y in q.elements():
                    assert g.dim_of(f"{x}⊗{y}") == p.dim_of(x) + q.dim_of(y)


def test_gray_always_validates():
    for p in FACTORS.values():
        for q in FACTORS.values():
            assert validate_complex(gray_product(p, q)).passed


def test_products_of_random_molecules_are_regular():
    # gray_product validates its factors only, relying on the theorem that
    # products of regular complexes are regular; check it on random ones
    rng = random.Random(0x6A7)
    for i in range(40):
        p, q = (random_molecule(rng, max_elements=14, max_dim=2).as_complex(f"{side}{i}") for side in "pq")
        pq = gray_product(p, q)
        report = validate_complex(pq)
        assert report.passed and report.unknowns == 0, pq.name
        for check in report.checks:
            assert {check.input_molecule, check.output_molecule}.isdisjoint({FAIL, UNKNOWN}), check
        gray_projections(pq, p, q)


def _raw_gray(p: Complex, q: Complex) -> Complex:
    """Reference: the product table written out directly, never validated."""
    table = {}
    for x in p.elements():
        for y in q.elements():
            cov = [(f"{t}⊗{y}", s) for t, s in p.covers(x)]
            cov += [(f"{x}⊗{t}", flip(s) if p.dim_of(x) % 2 else s) for t, s in q.covers(y)]
            table[f"{x}⊗{y}"] = (p.dim_of(x) + q.dim_of(y), cov)
    return Complex(f"{p.name}⊗{q.name}", table)


def _flip_one_sign(cx: Complex, x: str, i: int) -> Complex:
    table = {e: (cx.dim_of(e), list(cx.covers(e))) for e in cx.elements()}
    t, s = table[x][1][i]
    table[x][1][i] = (t, flip(s))
    return Complex(f"{cx.name}~{x}.{i}", table)


def test_gray_product_matches_unvalidated_reference():
    # the product of regular complexes is regular, so validating the factors
    # must reject exactly the products that fail validation themselves
    broken = [
        _flip_one_sign(FACTORS["O1"], "1", 0),
        _flip_one_sign(FACTORS["O2"], "2", 1),
        _flip_one_sign(FACTORS["O2"], "1-", 0),
    ]
    assert not any(validate_complex(b).passed for b in broken)
    factors = [globe(0), *FACTORS.values(), *broken]
    rejected = 0
    for p in factors:
        for q in factors:
            raw = _raw_gray(p, q)
            if validate_complex(raw).passed:
                g = gray_product(p, q)
                assert serialize_complex(g) == serialize_complex(raw)
                assert [g.covers(e) for e in raw.elements()] == [raw.covers(e) for e in raw.elements()]
            else:
                rejected += 1
                named = p if p in broken else q
                with pytest.raises(ProductError, match=re.escape(f"factor {named.name} failed")):
                    gray_product(p, q)
    assert rejected == len(factors) ** 2 - (len(factors) - len(broken)) ** 2


def test_gray_associative_up_to_pairing():
    # with one separator per level the two bracketings agree id for id
    p, q, r = globe(1), globe(1), globe(2)
    left = gray_product(gray_product(p, q, sep="·"), r, sep="×")
    right = gray_product(p, gray_product(q, r, sep="×"), sep="·")
    assert sorted(left.elements()) == sorted(right.elements())
    for e in left.elements():
        assert left.dim_of(e) == right.dim_of(e)
        assert sorted(left.covers(e)) == sorted(right.covers(e))


def test_gray_separator_collision():
    with pytest.raises(ProductError, match="separator"):
        gray_product(gray_product(globe(1), globe(1)), globe(1))
    assert gray_product(gray_product(globe(1), globe(1)), globe(1), sep="|") is not None


def test_projections_of_square():
    g = gray_product(globe(1), globe(1))
    left, right = gray_projections(g, globe(1), globe(1))
    assert left["1⊗1"] == "1" and right["1⊗1"] == "1"


def test_projection_unit_is_iso():
    q = u_cell(2, 1).as_complex("U21")
    g = gray_product(globe(0), q)
    _, right = gray_projections(g, globe(0), q)
    assert sorted(set(right.values())) == sorted(q.elements())


def test_projections_preserve_boundaries_on_3d():
    p = u_cell(2, 1).as_complex("U21")
    g = gray_product(p, globe(1))
    gray_projections(g, p, globe(1))  # raises on any boundary break


def _arrow_cell(name: str) -> LabelledComplex:
    return LabelledComplex(
        globe(1), {"0-": BASEPOINT, "0+": BASEPOINT, "1": name}
    )


def test_gray_labelled_carries_pairs():
    lab = gray_labelled(_arrow_cell("a"), _arrow_cell("c"))
    assert lab.labels["1⊗1"] == "a⊗c"
    assert lab.pairs["0-⊗1"] == (BASEPOINT, "c")


def test_smash_collapse_square_dotted_wires():
    lab = smash_collapse(gray_labelled(_arrow_cell("a"), _arrow_cell("c")))
    kept = {x: l for x, l in lab.labels.items() if l != BASEPOINT}
    assert kept == {"1⊗1": "a⊗c"}
    wires = [x for x in lab.shape.elements() if lab.shape.dim_of(x) == 1]
    assert all(lab.labels[w] == BASEPOINT for w in wires)


def test_smash_collapse_all_basepoint():
    point = LabelledComplex(globe(0), {"0": BASEPOINT})
    lab = smash_collapse(gray_labelled(point, point))
    assert set(lab.labels.values()) == {BASEPOINT}


def test_smash_collapse_needs_pair_labels():
    with pytest.raises(ProductError, match="^collapse needs pair labels$"):
        smash_collapse(_arrow_cell("a"))


def test_smash_collapse_cylinder_inventory():
    mu = LabelledComplex(
        u_cell(2, 1).as_complex("U21"),
        {
            x: (
                "μ"
                if u_cell(2, 1).complex.dim_of(x) == 2
                else "1"
                if u_cell(2, 1).complex.dim_of(x) == 1
                else BASEPOINT
            )
            for x in u_cell(2, 1).complex.elements()
        },
    )
    lab = smash_collapse(gray_labelled(mu, _arrow_cell("1")))
    kept = sorted(l for l in lab.labels.values() if l != BASEPOINT)
    assert kept == ["1⊗1", "1⊗1", "1⊗1", "μ⊗1"]


def test_smash_generators_convolution():
    mon = {0: [BASEPOINT], 1: ["1"], 2: ["μ", "η"], 3: ["α", "λ", "ρ"]}
    inv = smash_generators(mon, mon)
    assert {d: len(v) for d, v in inv.items()} == {0: 1, 2: 1, 3: 4, 4: 10, 5: 12, 6: 9}
    point = {0: [BASEPOINT]}
    assert smash_generators(mon, point) == {0: [BASEPOINT]}
    comon = {0: [BASEPOINT], 1: ["1"], 2: ["δ", "ε"], 3: ["α*", "λ*", "ρ*"]}
    assert {d: len(v) for d, v in smash_generators(mon, comon).items()} == {
        d: len(v) for d, v in inv.items()
    }


def test_smash_generators_random_inventories(rng):
    for _ in range(20):
        gx = {0: [BASEPOINT]}
        gy = {0: [BASEPOINT]}
        for d in range(1, rng.randint(2, 5)):
            gx[d] = [f"x{d}{i}" for i in range(rng.randint(0, 3))]
        for d in range(1, rng.randint(2, 5)):
            gy[d] = [f"y{d}{i}" for i in range(rng.randint(0, 3))]
        inv = smash_generators(gx, gy)
        for n, names in inv.items():
            if n == 0:
                assert names == [BASEPOINT]
                continue
            want = sum(
                len(gx.get(k, [])) * len(gy.get(n - k, []))
                for k in range(1, n)
            )
            assert len(names) == want


def test_validation_of_high_products():
    from pastekit import validate_complex

    # the 4-cell's boundaries are 3-molecules, inside the complete range
    report = validate_complex(gray_product(globe(2), globe(2)))
    assert report.passed and report.unknowns == 0
    # one dimension up the recogniser is best-effort, and still succeeds here
    report = validate_complex(gray_product(globe(2), globe(3)))
    assert report.passed


def test_recognition_above_three_is_inconclusive_on_failure():
    from pastekit import Complex, UNKNOWN, recognize

    # two disjoint copies of a 4-dimensional atom: certainly not a molecule,
    # but a failed search above dimension 3 cannot certify that
    o4 = globe(4)
    table = {}
    for tag in ("a", "b"):
        for x in o4.elements():
            table[f"{tag}{x}"] = (
                o4.dim_of(x),
                [(f"{tag}{t}", s) for t, s in o4.covers(x)],
            )
    pair = Complex("pair4", table)
    assert recognize(pair, pair.whole()) is UNKNOWN
    # the same shape two dimensions down is conclusively rejected
    o2 = globe(2)
    table = {}
    for tag in ("a", "b"):
        for x in o2.elements():
            table[f"{tag}{x}"] = (
                o2.dim_of(x),
                [(f"{tag}{t}", s) for t, s in o2.covers(x)],
            )
    pair2 = Complex("pair2", table)
    assert recognize(pair2, pair2.whole()) is None
