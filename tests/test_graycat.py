import itertools
import json

import pytest

from pastekit import (
    Atom,
    Complex,
    GenApp,
    GrayExpr3,
    Interchange,
    KOrder,
    MINUS,
    Molecule,
    PLUS,
    TwoCellNF,
    UNKNOWN,
    cell_to,
    expr_equal,
    expr_normalize,
    format_expr,
    four_cell_equation,
    frame_decomposition,
    globe,
    globe_molecule,
    interchanger_path,
    interpret,
    interpret_atom_in_context,
    inversion_weight,
    k_order,
    maxd,
    nf_source,
    nf_target,
    paste,
    recognize,
    u_cell,
    validate_complex,
)
from pastekit.graycat import ExpressionError, apply_step, walk
from pastekit.orders import normal_order_of_subset
from pastekit.render import _wire_sequence
from pastekit.serialize import parse_expr, serialize_expr
from pastekit.fixtures import frob

from conftest import random_2_molecule


@pytest.fixture(scope="module")
def F():
    return frob()


def _row_of_cells(n):
    """n side-by-side 1-in 1-out cells: every cell order is admissible."""
    u = u_cell(1, 1)
    for _ in range(n - 1):
        u = paste(u, u_cell(1, 1), 0)
    return u


def _looping_cells():
    """``cell_to(X, X)`` over ``X = (O2 #0 O2) #1 U(2,1)``, with a second
    3-cell ``back`` from the output 2-cells of ``top`` to its input ones: a
    valid complex whose two 3-cells precede each other."""
    x = paste(paste(u_cell(1, 1), u_cell(1, 1), 0), u_cell(2, 1), 1)
    cx = cell_to(x, x).complex
    table = {y: (cx.dim_of(y), cx.covers(y)) for y in cx}
    table["back"] = (3, [(t, MINUS if s == PLUS else PLUS) for t, s in cx.covers("top")])
    return Complex("loop3", table)


def test_nf_endpoints_of_empty_and_single():
    u = u_cell(1, 1)
    cx = u.complex
    nf = TwoCellNF(u.members, normal_order_of_subset(cx, u.members))
    e = GrayExpr3(cx, nf, ())
    assert nf_source(e) == nf_target(e) == nf

    from pastekit import cell_to

    a = cell_to(u, u_cell(1, 1))
    whole = recognize(a.complex, a.members)
    e = interpret_atom_in_context(whole)
    assert len(e.steps) == 1 and isinstance(e.steps[0], GenApp)
    assert nf_source(e).support == a.complex.boundary(a.members, 2, MINUS)
    assert nf_target(e).support == a.complex.boundary(a.members, 2, PLUS)


def test_frob_interpretation_endpoints(F):
    u = F.molecule
    cx = u.complex
    e = interpret(u)
    assert nf_source(e).order == (F["x"], F["z"], F["w"], F["y"])
    assert nf_target(e).order == (F["x'"], F["y'"], F["z'"], F["w'"])


def test_inversion_weight_examples():
    row = _row_of_cells(4)
    cx = row.complex
    normal = normal_order_of_subset(cx, row.members)
    assert inversion_weight(cx, TwoCellNF(row.members, normal)) == 0
    swapped = (normal[1], normal[0]) + normal[2:]
    assert inversion_weight(cx, TwoCellNF(row.members, swapped)) == 1
    assert inversion_weight(cx, TwoCellNF(row.members, normal[::-1])) == 6


def test_interchanger_path_trivial_and_single():
    row = _row_of_cells(2)
    cx = row.complex
    normal = normal_order_of_subset(cx, row.members)
    assert interchanger_path(cx, row.members, normal, normal) == ()
    path = interchanger_path(cx, row.members, normal, normal[::-1])
    assert len(path) == 1 and path[0].direction == "fwd"


def test_interchanger_path_length_equals_weight():
    row = _row_of_cells(4)
    cx = row.complex
    normal = normal_order_of_subset(cx, row.members)
    for perm in itertools.permutations(normal):
        nf = TwoCellNF(row.members, perm)
        w = inversion_weight(cx, nf)
        path = interchanger_path(cx, row.members, perm, normal)
        assert len(path) == w
        # every step toward the canonical order drops the weight by one
        cur = nf
        for step in path:
            assert step.direction == "inv"
            nxt = apply_step(cx, cur, step)
            assert inversion_weight(cx, nxt) == inversion_weight(cx, cur) - 1
            cur = nxt


def test_interchanger_path_refuses_orders_of_different_cells():
    row = _row_of_cells(3)
    cx = row.complex
    normal = normal_order_of_subset(cx, row.members)
    for other in (normal[:2], normal[:2] + normal[:1]):
        with pytest.raises(ExpressionError, match="orders do not contain the same cells"):
            interchanger_path(cx, row.members, normal, other)


def test_single_cell_readings_refuse_frob(F):
    with pytest.raises(ExpressionError, match="expected a molecule with exactly one 3-cell"):
        interpret_atom_in_context(F.molecule)
    with pytest.raises(ExpressionError, match="expected a molecule with exactly one 4-cell"):
        four_cell_equation(F.molecule)


def test_interchange_requires_independence():
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    cx = q.complex
    order = normal_order_of_subset(cx, q.members)
    nf = TwoCellNF(q.members, order)
    with pytest.raises(Exception):
        apply_step(cx, nf, Interchange(0, "fwd", (order[0], order[1])))


def test_frob_chi_phase(F):
    u = F.molecule
    cx = u.complex
    bm = cx.boundary(u.members, 2, MINUS)
    normal = normal_order_of_subset(cx, bm)
    target = (F["x"], F["y"], F["z"], F["w"])
    path = interchanger_path(cx, bm, normal, target)
    assert [p.pair for p in path] == [(F["w"], F["y"]), (F["z"], F["y"])]
    assert all(p.direction == "fwd" for p in path)


def test_interpret_atom_context_independence(F):
    u = F.molecule
    v1, v2 = frame_decomposition(u, 2, k_order(u, 2))
    default = interpret_atom_in_context(v1)
    explicit = interpret_atom_in_context(v1, (F["x"], F["y"], F["phi"]))
    assert expr_equal(default, explicit)
    kinds = [type(s).__name__ for s in explicit.steps]
    assert kinds == ["Interchange", "Interchange", "GenApp", "Interchange", "Interchange"]
    # the second factor needs no closing phase: its target is already canonical
    second = interpret_atom_in_context(v2)
    assert isinstance(second.steps[-1], GenApp)


def test_interpret_both_orders_agree(F):
    u = F.molecule
    e1 = interpret(u, KOrder(2, (F["phi"], F["psi"])))
    e2 = interpret(u, KOrder(2, (F["psi"], F["phi"])))
    assert e1.steps != e2.steps
    assert expr_equal(e1, e2)


def test_interpret_rejects_non_2_order(F):
    u = F.molecule
    with pytest.raises(Exception):
        interpret(u, KOrder(2, (F["phi"],)))
    with pytest.raises(ExpressionError, match="^interpretation applies to 3-dimensional molecules$"):
        interpret(u_cell(1, 1))
    cx = _looping_cells()
    with pytest.raises(ExpressionError, match="^no admissible 2-order: frame graph loops$"):
        interpret(Molecule(cx, cx.whole(), Atom("top")))


def test_expr_inverse_pair_cancels():
    row = _row_of_cells(3)
    cx = row.complex
    normal = normal_order_of_subset(cx, row.members)
    other = (normal[0], normal[2], normal[1])
    fwd = interchanger_path(cx, row.members, normal, other)
    back = interchanger_path(cx, row.members, other, normal)
    both = GrayExpr3(cx, TwoCellNF(row.members, normal), fwd + back)
    assert expr_normalize(both).steps == ()


def test_expr_equal_answers_unknown_outside_the_canonical_fragment():
    cx = _looping_cells()
    assert validate_complex(cx).passed
    bm = cx.boundary(cx.closure(["top"]), 2, MINUS)
    source = TwoCellNF(bm, normal_order_of_subset(cx, bm))
    a, b = source.order[:2]
    around = GrayExpr3(cx, source, (GenApp("top", (), ()), GenApp("back", (), ())))
    detour = GrayExpr3(cx, source, (Interchange(0, "fwd", (a, b)), Interchange(0, "inv", (b, a))) + around.steps)
    again = GrayExpr3(cx, source, around.steps + (GenApp("top", (), ()),))
    assert (len(around), len(detour), len(again)) == (2, 4, 3)
    # equal composites, as the detour's interchangers cancel; but the 3-cells
    # loop, or one repeats, so neither has a normal form to compare
    assert nf_target(around) == nf_target(detour)
    for e1, e2 in ((around, detour), (again, again)):
        assert expr_equal(e1, e2) is UNKNOWN
        assert expr_normalize(e1) is e1
    # a source order that is not admissible walks, but cannot be rethreaded
    u = paste(cell_to(globe_molecule(2), globe_molecule(2)), globe_molecule(2), 1)
    cx = u.complex
    bm = cx.boundary(u.members, 2, MINUS)
    first, second = normal_order_of_subset(cx, bm)
    e = GrayExpr3(cx, TwoCellNF(bm, (second, first)), (GenApp("left/top", (second,), ()),))
    assert walk(e)[-1].support == cx.boundary(u.members, 2, PLUS)
    assert expr_normalize(e) is e
    assert expr_equal(e, e) is UNKNOWN
    # different sources decide the answer whatever the steps
    assert expr_equal(e, interpret(u)) is False
    assert expr_equal(interpret(u), interpret(u)) is True


def test_expr_normalize_idempotent(F):
    e = interpret(F.molecule, KOrder(2, (F["psi"], F["phi"])))
    n1 = expr_normalize(e)
    assert expr_normalize(n1).steps == n1.steps


def test_independent_genapps_commute(F):
    u = F.molecule
    cx = u.complex
    e1 = interpret(u, KOrder(2, (F["phi"], F["psi"])))
    e2 = interpret(u, KOrder(2, (F["psi"], F["phi"])))
    atoms1 = [s.atom for s in expr_normalize(e1).steps if isinstance(s, GenApp)]
    atoms2 = [s.atom for s in expr_normalize(e2).steps if isinstance(s, GenApp)]
    assert atoms1 == atoms2


def test_format_expr_listing(F):
    names = {v: k for k, v in F.names.items()}
    listing = format_expr(interpret(F.molecule), names)
    assert listing == "χ⁻[w,y] ; χ⁻[z,y] ; c[phi] ; c[psi]"


def _layered_encoding(u, members, order):
    """Encode a 2-molecule with a cell order as whisker positions, then
    rebuild; the round trip must reproduce the subset and the order."""
    cx = u.complex
    wires = _wire_sequence(cx, cx.boundary(members, 1, MINUS))
    encoded = []
    seq = list(wires)
    for atom in order:
        cl = cx.closure([atom])
        ins = _wire_sequence(cx, cx.boundary(cl, 1, MINUS))
        outs = _wire_sequence(cx, cx.boundary(cl, 1, PLUS))
        pos = seq.index(ins[0]) if ins else len(seq)
        assert seq[pos : pos + len(ins)] == ins
        encoded.append((pos, atom, len(ins), len(outs)))
        seq[pos : pos + len(ins)] = outs
    rebuilt = cx.closure([a for _, a, _, _ in encoded]) | cx.closure(wires)
    assert rebuilt == members
    return encoded


def test_two_cell_layered_encoding_roundtrip(rng):
    from pastekit import enumerate_molecules

    for _ in range(6):
        u = random_2_molecule(rng, max_elements=24)
        cx = u.complex
        pool, _ = enumerate_molecules(cx, 400)
        twos = [m for m in pool if cx.dim_of_subset(m.members) == 2][:8]
        for v in twos:
            order = list(normal_order_of_subset(cx, v.members))
            _layered_encoding(u, v.members, tuple(order))
            # also round-trip a non-normal admissible order when one exists
            g = maxd(cx, v.members, 1)
            reach = {x: g.reachable(x) for x in g.high}
            for p in range(len(order) - 1):
                a, b = order[p], order[p + 1]
                if b not in reach.get(a, ()) and a not in reach.get(b, ()):
                    order[p], order[p + 1] = b, a
                    _layered_encoding(u, v.members, tuple(order))
                    break


def test_four_cell_equation_is_parallel():
    from pastekit import gray_product

    square = gray_product(globe(2), globe(2))
    whole = recognize(square, square.whole())
    eq = four_cell_equation(whole)
    assert nf_source(eq.lhs) == nf_source(eq.rhs)
    assert nf_target(eq.lhs) == nf_target(eq.rhs)
    assert [s.atom for s in eq.lhs.steps if isinstance(s, GenApp)] != [
        s.atom for s in eq.rhs.steps if isinstance(s, GenApp)
    ]


def test_four_cell_equation_refuses_boundaries_it_cannot_read():
    # hand-built handles on 4-cells that are no atoms: a 4-globe beside a
    # stray point, and a 4-cell from one 3-globe to another apart from it
    o4 = globe(4)
    stray = Complex("stray", {"z": (0, []), **{x: (o4.dim_of(x), o4.covers(x)) for x in o4}})
    o3 = globe(3)
    apart = {f"{g}{x}": (o3.dim_of(x), [(f"{g}{y}", s) for y, s in o3.covers(x)]) for g in "ab" for x in o3}
    apart = Complex("apart", {**apart, "x": (4, [("a3", MINUS), ("b3", PLUS)])})
    for cx, top, message in (
        (stray, "4", "-3-boundary did not recognise as a molecule"),
        (apart, "x", "boundary interpretations are not parallel"),
    ):
        with pytest.raises(ExpressionError, match=f"^{message}$"):
            four_cell_equation(Molecule(cx, cx.whole(), Atom(top)))


def test_interpret_single_atom_equals_atom_interpretation(F):
    from pastekit import cell_to

    # a bare 3-atom: one generator step, no interchangers
    a = cell_to(u_cell(2, 1), u_cell(2, 1))
    whole = recognize(a.complex, a.members)
    assert interpret(whole).steps == interpret_atom_in_context(whole).steps
    assert len(interpret(whole).steps) == 1
    # a whiskered single-cell factor: the two entry points still agree
    v1, _ = frame_decomposition(F.molecule, 2, k_order(F.molecule, 2))
    assert interpret(v1).steps == interpret_atom_in_context(v1).steps


def test_interpret_atom_all_contexts_agree(F):
    u = F.molecule
    v1, _ = frame_decomposition(u, 2, k_order(u, 2))
    contexts = [
        (F["x"], F["y"], F["phi"]),
        (F["x"], F["phi"], F["y"]),
    ]
    exprs = [interpret_atom_in_context(v1, c) for c in contexts]
    exprs.append(interpret_atom_in_context(v1))
    for e in exprs[1:]:
        assert expr_equal(exprs[0], e)
    with pytest.raises(Exception):
        interpret_atom_in_context(v1, (F["phi"], F["x"], F["y"]))
    with pytest.raises(ExpressionError, match="^the context must mention the 3-cell once$"):
        interpret_atom_in_context(v1, (F["x"], F["y"]))


def test_interpret_order_independence_on_random_composites(rng):
    """Horizontally pasted 3-molecules admit several cell orders; all of
    them must interpret to the same composite."""
    from pastekit import paste
    from pastekit.orders import is_k_order

    from conftest import random_molecule

    checked = 0
    while checked < 6:
        a = random_molecule(rng, max_elements=22, max_dim=3)
        b = random_molecule(rng, max_elements=22, max_dim=3)
        if a.dim != 3 or b.dim != 3:
            continue
        u = paste(a, b, 0)
        base = k_order(u, 2)
        if base is None or len(base.sequence) < 2:
            continue
        g = maxd(u.complex, u.members, 2)
        reach = {x: g.reachable(x) for x in g.high}
        orders = {base.sequence}
        for _ in range(16):
            seq = list(rng.choice(sorted(orders)))
            p = rng.randrange(len(seq) - 1)
            x, y = seq[p], seq[p + 1]
            if y in reach.get(x, ()) or x in reach.get(y, ()):
                continue
            seq[p], seq[p + 1] = y, x
            if is_k_order(u, 2, seq):
                orders.add(tuple(seq))
        if len(orders) < 2:
            continue
        checked += 1
        exprs = [interpret(u, KOrder(2, o)) for o in sorted(orders)]
        for e in exprs[1:]:
            assert expr_equal(exprs[0], e)


def test_mislabelled_interchange_direction_rejected():
    row = _row_of_cells(2)
    cx = row.complex
    normal = normal_order_of_subset(cx, row.members)
    nf = TwoCellNF(row.members, normal)
    with pytest.raises(Exception, match="mislabelled"):
        apply_step(cx, nf, Interchange(0, "inv", (normal[0], normal[1])))
    good = apply_step(cx, nf, Interchange(0, "fwd", (normal[0], normal[1])))
    assert good.order == (normal[1], normal[0])


def test_cells_outside_the_support_raise_expression_error():
    row = _row_of_cells(2)
    cx = row.complex
    order = normal_order_of_subset(cx, row.members)
    ghost = TwoCellNF(row.members, ("ghost",) + order)
    swap = Interchange(0, "fwd", ("ghost", order[0]))
    with pytest.raises(ExpressionError, match="ghost"):
        apply_step(cx, ghost, swap)
    with pytest.raises(ExpressionError, match="ghost"):
        nf_target(GrayExpr3(cx, ghost, (swap,)))
    with pytest.raises(ExpressionError, match="'ghost' is not a cell of the support"):
        inversion_weight(cx, ghost)
    nf = TwoCellNF(row.members, order)
    with pytest.raises(ExpressionError, match="ghost"):
        apply_step(cx, nf, GenApp("ghost", (), ()))
    # a support holding a 3-cell's input 2-cell but not its wires
    a = cell_to(u_cell(1, 1), u_cell(1, 1))
    bare = TwoCellNF(frozenset({"left/top"}), ("left/top",))
    with pytest.raises(ExpressionError, match="^input boundary of 'top' not inside the support$"):
        apply_step(a.complex, bare, GenApp("top", (), ()))
    with pytest.raises(ExpressionError, match="ghost"):
        nf_target(GrayExpr3(cx, nf, (GenApp("ghost", (), ()),)))
    # a support naming an element the complex does not have
    step = Interchange(0, "fwd", order[:2])
    outside = GrayExpr3(cx, TwoCellNF(row.members | {"ghost"}, order), (step,))
    doc = json.loads(serialize_expr(GrayExpr3(cx, nf, (step,))))
    doc["source"]["support"].append("ghost")
    parsed = parse_expr(json.dumps(doc), cx)
    for call in (
        lambda: walk(outside),
        lambda: inversion_weight(cx, outside.source),
        lambda: expr_equal(outside, outside),
        lambda: walk(parsed),
    ):
        with pytest.raises(ExpressionError, match="unknown element 'ghost'"):
            call()
