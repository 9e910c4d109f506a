import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastekit import (
    BASEPOINT,
    Complex,
    DiagComplexPresentation,
    LabelledComplex,
    MINUS,
    Permutation,
    ProPresentation,
    TheoryError,
    block_sigma,
    builtin,
    globe,
    interval_chain,
    perm_decompose,
    perm_recompose,
    presentation_of_smash,
    smash_generators,
    prop_quotient,
    sigma_expr,
    sigma_star_expr,
    tensor_pros,
    wire_permutation,
)
from pastekit.serialize import parse_presentation, serialize_presentation
from pastekit.theories import Braid, BraidInv, DiagCell, GenOp, GenRef, Layered2Cell, Slice, pro_dual


perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda xs: Permutation(tuple(xs)))
)


def test_decompose_examples():
    assert perm_decompose(Permutation.identity(4)) == []
    assert perm_decompose(Permutation((2, 5, 1, 4, 3))) == [2, 1, 3, 4, 3]
    assert perm_decompose(Permutation((3, 2, 1))) == [1, 2, 1]
    # positions outside 1..n-1 name no adjacent pair
    for word in ([0], [3], [1, 3], [-1]):
        with pytest.raises(TheoryError, match="positions must lie in 1..2"):
            perm_recompose(word, 3)
    assert perm_recompose([2, 1], 3) == Permutation((2, 3, 1))
    with pytest.raises(TheoryError, match=r"^not a permutation of 1..2: \(1, 1\)$"):
        Permutation((1, 1))


@given(perms)
@settings(max_examples=200, deadline=None)
def test_decompose_properties(s):
    word = perm_decompose(s)
    assert len(word) == s.inversions()
    assert perm_recompose(word, s.n) == s


@given(perms)
@settings(max_examples=150, deadline=None)
def test_braiding_words_trace_the_permutation(s):
    w = tuple(f"a{i}" for i in range(1, s.n + 1))
    e = sigma_expr(s, w)
    assert wire_permutation(e) == s
    star = sigma_star_expr(s, w)
    assert wire_permutation(star) == s
    assert e.target({}) == star.target({})
    assert all(isinstance(sl.op, Braid) for sl in e.slices)
    assert all(isinstance(sl.op, BraidInv) for sl in star.slices)


def test_wire_permutation_rejects_slices_that_do_not_chain():
    for cell in (
        Layered2Cell(("a", "b", "c"), (Slice((), Braid("x", "y"), ("c",)),)),
        # a crossing of the last wire with one past the end
        Layered2Cell(("a", "b"), (Slice(("a",), Braid("b", "c"), ()),)),
    ):
        with pytest.raises(TheoryError, match="slice does not chain"):
            cell.target({})
        with pytest.raises(TheoryError, match="slice does not chain"):
            wire_permutation(cell)


def test_sigma_basic_shapes():
    assert sigma_expr(Permutation.identity(3), ("a", "b", "c")).slices == ()
    e = sigma_expr(Permutation((2, 1)), ("a", "b"))
    assert len(e.slices) == 1 and e.slices[0].op == Braid("a", "b")
    e5 = sigma_expr(Permutation((2, 5, 1, 4, 3)), tuple("abcde"))
    assert len(e5.slices) == 5
    for word in (("a",), ("a", "b", "c")):
        for f in (sigma_expr, sigma_star_expr):
            with pytest.raises(TheoryError, match="permutation and word lengths differ"):
                f(Permutation((2, 1)), word)


def test_sigma_star_unfolds_to_inverse_word():
    s = Permutation((3, 1, 2))
    w = ("a", "b", "c")
    star = sigma_star_expr(s, w)
    cur = star.target({})
    slices = []
    for sl in reversed(star.slices):
        k = len(sl.pre)
        a, b = cur[k], cur[k + 1]
        slices.append(Slice(cur[:k], Braid(a, b), cur[k + 2 :]))
        cur = cur[:k] + (b, a) + cur[k + 2 :]
    assert Layered2Cell(star.target({}), tuple(slices)) == sigma_expr(
        s.inverse(), star.target({})
    )


def test_block_sigma_degenerate():
    sig, sig_star = block_sigma(1, 3, [["a", "b", "c"]])
    assert sig.slices == () and sig_star.slices == ()
    sig, sig_star = block_sigma(3, 1, [["a"], ["b"], ["c"]])
    assert sig.slices == () and sig_star.slices == ()


def test_block_sigma_2x3():
    grid = [[f"a{i}{j}" for j in range(1, 4)] for i in range(1, 3)]
    sig, sig_star = block_sigma(2, 3, grid)
    row_major = tuple(f"a{i}{j}" for i in (1, 2) for j in (1, 2, 3))
    col_major = tuple(f"a{i}{j}" for j in (1, 2, 3) for i in (1, 2))
    assert sig.source == row_major and sig.target({}) == col_major
    assert sig_star.source == col_major and sig_star.target({}) == row_major
    # the wire permutation is the block transpose
    s = wire_permutation(sig)
    for i in (1, 2):
        for j in (1, 2, 3):
            assert s((i - 1) * 3 + j) == (j - 1) * 2 + i


def _random_word(rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))


def _random_cell(rng: random.Random) -> Layered2Cell:
    """A stack of up to four slices over a random word.  Most slices cross two
    neighbouring wires of the word they meet; the others are a generator or a
    crossing with random whiskers, which may not chain."""
    source = word = _random_word(rng)
    slices = []
    for _ in range(rng.randint(0, 4)):
        crossing = rng.choice((Braid, BraidInv))
        if len(word) >= 2 and rng.random() < 0.7:
            k = rng.randrange(len(word) - 1)
            a, b = word[k], word[k + 1]
            slices.append(Slice(word[:k], crossing(a, b), word[k + 2 :]))
            word = word[:k] + (b, a) + word[k + 2 :]
        else:
            op = GenRef(rng.choice("fg")) if rng.random() < 0.4 else crossing(*rng.sample("abcd", 2))
            slices.append(Slice(_random_word(rng), op, _random_word(rng)))
    return Layered2Cell(source, tuple(slices))


def _random_family(rng: random.Random) -> tuple[int, int, list[list[str]]]:
    """An n-by-m family of sorts, or (one time in three) rows of other lengths."""
    n, m = rng.randint(-1, 3), rng.randint(-1, 3)
    rows = [[f"s{i}{j}" for j in range(max(m, 0))] for i in range(max(n, 0))]
    if rng.random() < 1 / 3:
        rows = [[f"s{i}{j}" for j in range(rng.randint(0, 3))] for i in range(rng.randint(0, 3))]
    return n, m, rows


def test_slice_functions_raise_only_theory_errors_on_random_slices():
    rng = random.Random(0x51C)
    outcomes = Counter()
    for _ in range(10_000):
        cell = _random_cell(rng)
        signatures = {g: (_random_word(rng), _random_word(rng)) for g in rng.sample("fg", rng.randint(0, 2))}
        n, m, rows = _random_family(rng)
        for name, call in (
            ("wire_permutation", lambda: wire_permutation(cell)),
            ("target", lambda: cell.target(signatures)),
            ("block_sigma", lambda: block_sigma(n, m, rows)),
        ):
            try:
                got = call()
            except (TheoryError, ValueError):
                outcomes[name, "refused"] += 1
                continue
            outcomes[name, "ok"] += 1
            if name == "wire_permutation":
                assert got.n == len(cell.source)
            elif name == "block_sigma":
                sigma, sigma_star = got
                assert sigma.target({}) == sigma_star.source
                assert sigma_star.target({}) == sigma.source == tuple(x for row in rows for x in row)
    names = ("wire_permutation", "target", "block_sigma")
    assert all(outcomes[name, outcome] for name in names for outcome in ("ok", "refused")), outcomes


def test_builtin_mon():
    mon = builtin("Mon")
    assert len(mon.generators) == 2 and len(mon.relations) == 3
    mon.check_relations()


def test_builtin_comon_swaps_words():
    mon, comon = builtin("Mon"), builtin("coMon")
    assert {(g.inputs, g.outputs) for g in comon.generators} == {
        (g.outputs, g.inputs) for g in mon.generators
    }
    comon.check_relations()


def test_builtin_complex_inventories():
    mc = builtin("MonComplex")
    assert {d: len(v) for d, v in mc.inventory().items()} == {0: 1, 1: 1, 2: 2, 3: 3}
    cc = builtin("coMonComplex")
    assert {d: len(v) for d, v in cc.inventory().items()} == {0: 1, 1: 1, 2: 2, 3: 3}


def test_builtin_unknown():
    with pytest.raises(TheoryError):
        builtin("nope")


def test_tensor_bialg_inventory():
    bialg = tensor_pros(builtin("Mon"), builtin("coMon"))
    assert bialg.sorts == ("1⊗1",)
    assert [g.name for g in bialg.generators] == ["μ⊗1", "η⊗1", "1⊗δ", "1⊗ε"]
    assert len(bialg.relations) == 10
    inherited = [r for r in bialg.relations if "*" in r.name or r.name[0] in "αλρ1"]
    assert len(inherited) == 6


def test_tensor_matches_handwritten_golden():
    bialg = tensor_pros(builtin("Mon"), builtin("coMon"))
    golden = builtin("BialgExpected")
    by_name = {r.name: r for r in bialg.relations}
    for r in golden.relations:
        assert by_name[r.name].lhs == r.lhs
        assert by_name[r.name].rhs == r.rhs
    assert tuple(g for g in bialg.generators) == golden.generators


def test_tensor_of_free_theories_is_free():
    nn = tensor_pros(builtin("N"), builtin("N"))
    assert nn.generators == () and nn.relations == () and nn.braided


def test_tensor_refuses_names_that_meet_at_the_separator(tmp_path, capsys):
    from pastekit.cli import main

    # ("a⊗b")⊗c and a⊗("b⊗c") are one sort
    t = ProPresentation("T", ("a", "a⊗b"), ())
    s = ProPresentation("S", ("c", "b⊗c"), ())
    with pytest.raises(TheoryError, match=r"T⊗S: sorts are not distinct: \['a⊗b⊗c'\]"):
        tensor_pros(t, s)
    # the generator x indexed by the sort y, and the sort x indexing the generator y
    t = ProPresentation("T", ("x",), (GenOp("x", ("x",), ("x",)),))
    s = ProPresentation("S", ("y",), (GenOp("y", ("y",), ("y",)),))
    with pytest.raises(TheoryError, match=r"T⊗S: generator names are not distinct: \['x⊗y'\]"):
        tensor_pros(t, s)
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    for path, p in zip(paths, (t, s)):
        path.write_bytes(serialize_presentation(p))
    assert main(["tensor", *map(str, paths)]) == 1
    assert capsys.readouterr().err == "T⊗S: generator names are not distinct: ['x⊗y']\n"
    # a separator inside a name is no collision by itself
    nested = tensor_pros(tensor_pros(builtin("Mon"), builtin("coMon")), builtin("Mon"))
    assert nested.sorts == ("1⊗1⊗1",)


def test_a_presentation_refuses_two_generators_or_sorts_with_one_name(tmp_path, capsys):
    from pastekit.cli import main
    from pastekit.serialize import ParseError

    # signatures() would keep only the second m, and relations would be
    # checked against it
    two_ms = '{"name": "D", "sorts": ["a"], "generators": [' \
        '{"name": "m", "in": ["a", "a"], "out": ["a"]}, {"name": "m", "in": [], "out": ["a"]}]}'
    two_as = '{"name": "E", "sorts": ["a", "a"], "generators": []}'
    cases = ((two_ms, "D: generator names are not distinct: ['m']"), (two_as, "E: sorts are not distinct: ['a']"))
    for i, (doc, message) in enumerate(cases):
        with pytest.raises(ParseError) as info:
            parse_presentation(doc)
        assert str(info.value) == message
        path = tmp_path / f"p{i}.json"
        path.write_text(doc)
        assert main(["tensor", str(path), str(path)]) == 2
        assert capsys.readouterr().err == message + "\n"
    with pytest.raises(TheoryError, match=r"^E: sorts are not distinct: \['a'\]$"):
        ProPresentation("E", ("a", "a"), ())
    # a rename that sends both generators of Mon to one name
    with pytest.raises(TheoryError, match=r"^Mon\^co: generator names are not distinct: \['u'\]$"):
        pro_dual(builtin("Mon"), {"μ": "u", "η": "u"})


def test_tensor_relations_parallel():
    for left, right in (("Mon", "coMon"), ("Mon", "Mon"), ("coMon", "coMon")):
        tensor_pros(builtin(left), builtin(right)).check_relations()


def test_tensor_brcmon():
    brc = tensor_pros(builtin("Mon"), builtin("Mon"))
    interchange = [r.name for r in brc.relations if "μ" in r.name or "η" in r.name]
    assert sorted(interchange) == ["η⊗η", "η⊗μ", "μ⊗η", "μ⊗μ"]


def test_prop_quotient():
    brc = tensor_pros(builtin("Mon"), builtin("Mon"))
    sym = prop_quotient(brc)
    assert sym.symmetric
    added = [r for r in sym.relations if r.name.startswith("σ[")]
    assert len(added) == 1  # one sort pair
    again = prop_quotient(sym)
    assert len(again.relations) == len(sym.relations)


def test_prop_quotient_with_tensor_context():
    mon = builtin("Mon")
    brc = tensor_pros(mon, mon)
    sym = prop_quotient(brc, tensor_of_props=(mon, mon))
    names = {r.name for r in sym.relations}
    assert "σ[1,1]⊗1" in names and "1⊗σ[1,1]" in names
    # the factors' crossings are declared, so every relation checks and the
    # serialized form parses back to the same bytes
    crossings = [g for g in sym.generators if g.name in ("σ[1,1]⊗1", "1⊗σ[1,1]")]
    assert [(g.inputs, g.outputs) for g in crossings] == [(("1⊗1", "1⊗1"),) * 2] * 2
    sym.check_relations()
    blob = serialize_presentation(sym)
    assert serialize_presentation(parse_presentation(blob)) == blob
    assert prop_quotient(sym, tensor_of_props=(mon, mon)) == sym


def test_pro_dual_of_a_braided_theory():
    mon, comon = builtin("Mon"), builtin("coMon")
    q = prop_quotient(tensor_pros(mon, comon), (mon, comon))
    ops = {type(s.op) for r in q.relations for c in (r.lhs, r.rhs) for s in c.slices}
    assert {Braid, BraidInv} <= ops
    dual = pro_dual(q)
    dual.check_relations()
    assert pro_dual(dual).relations == q.relations


def test_prop_quotient_needs_braiding():
    with pytest.raises(TheoryError):
        prop_quotient(builtin("Mon"))


def test_presentation_of_smash_point():
    mc = builtin("MonComplex")
    point = DiagComplexPresentation(
        "point", (mc.cells[0],)
    )
    sm = presentation_of_smash(mc, point)
    assert [c.name for c in sm.cells] == [BASEPOINT]


@pytest.mark.parametrize(
    "left, right", [("MonComplex", "MonComplex"), ("MonComplex", "coMonComplex"), ("coMonComplex", "MonComplex")]
)
def test_presentation_of_smash_inventory_is_the_generator_formula(left, right):
    x, y = builtin(left), builtin(right)
    inventory = presentation_of_smash(x, y).inventory()
    # inventory() lists names in cell order; the formula sorts each dimension
    assert {d: sorted(ns) for d, ns in inventory.items()} == smash_generators(x.inventory(), y.inventory())


def test_mon_complex_shapes_check():
    builtin("MonComplex").check()
    builtin("coMonComplex").check()


def test_diag_presentation_label_discipline():
    bad = DiagComplexPresentation(
        "bad",
        (
            builtin("MonComplex").cells[0],
            builtin("MonComplex").cells[1],
            # a 2-cell labelled by a 1-dimensional generator
            type(builtin("MonComplex").cells[2])(
                "oops",
                2,
                LabelledComplex(
                    builtin("MonComplex").cells[2].cell.shape,
                    {
                        x: ("1" if builtin("MonComplex").cells[2].cell.shape.dim_of(x) >= 1 else BASEPOINT)
                        for x in builtin("MonComplex").cells[2].cell.shape.elements()
                    },
                ),
            ),
        ),
    )
    with pytest.raises(TheoryError):
        bad.check()
    mon = builtin("MonComplex")
    with pytest.raises(TheoryError, match="^MonComplex: no generating cell 'nope'$"):
        mon.cell("nope")
    wire = lambda shape, label: LabelledComplex(
        shape, {x: label if shape.dim_of(x) == 1 else BASEPOINT for x in shape.elements()}
    )
    # an arrow whose two ends are both inputs: an atom, but no cell
    flat = Complex("flat", {"0-": (0, []), "0+": (0, []), "1": (1, [("0-", MINUS), ("0+", MINUS)])})
    for shape, label, message in (
        (interval_chain(2).as_complex(), "1", "shape is not an atom of dim 1"),
        (globe(1), "nope", "label 'nope' is not a generator"),
        (flat, "1", "shape fails validation"),
    ):
        cell = DiagCell("odd", 1, wire(shape, label))
        with pytest.raises(TheoryError, match=f"^bad.odd: {message}$"):
            DiagComplexPresentation("bad", (*mon.cells[:2], cell)).check()


def test_docstring_examples():
    import doctest

    import pastekit.theories as module

    results = doctest.testmod(module)
    assert results.failed == 0 and results.attempted >= 2


def test_prop_quotient_of_free_prob():
    free = tensor_pros(builtin("N"), builtin("N"))
    sym = prop_quotient(free)
    assert sym.symmetric
    assert [r.name for r in sym.relations] == ["σ[1⊗1,1⊗1]=σ*[1⊗1,1⊗1]"]
