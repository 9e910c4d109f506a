import random
from itertools import combinations

import pytest

from pastekit import (
    Atom,
    Complex,
    KOrder,
    MINUS,
    Molecule,
    PLUS,
    UNKNOWN,
    cell_to,
    check_sim_substitution,
    compos,
    frame_acyclic,
    frame_dimension,
    frame_decomposition,
    globe,
    globe_molecule,
    interval_chain,
    k_order,
    maxd,
    normal_1_order,
    paste,
    recognize,
    slice_decomposition,
    substitute,
    totally_loop_free,
    u_cell,
)
from pastekit.fixtures import frob, power
from pastekit.orders import MaxdGraph, is_k_order, normal_order_of_subset

from conftest import assert_cycle, random_2_molecule, random_molecule


def test_maxd_interval_is_a_path():
    i2 = interval_chain(2)
    g = maxd(i2.complex, i2.members, 0)
    assert len(g.high) == 2
    # exactly one vertex has a wire on either side: the shared midpoint
    mids = [
        v
        for v in g.low
        if g.adjacency[v] and any(v in g.adjacency[w] for w in g.high)
    ]
    assert len(mids) == 1
    (incoming,) = [w for w in g.high if mids[0] in g.adjacency[w]]
    (outgoing,) = g.adjacency[mids[0]]
    assert incoming != outgoing
    assert g.acyclic


def test_maxd_single_high_vertex():
    o2 = globe(2)
    g = maxd(o2, o2.whole(), 1)
    assert g.high == ("2",)
    assert all("2" not in g.adjacency[v] or o2.dim_of(v) <= 1 for v in g.adjacency)


def test_frame_dimension_examples():
    o1 = globe_molecule(1)
    assert frame_dimension(o1.complex, o1.members) == -1
    i2 = interval_chain(2)
    assert frame_dimension(i2.complex, i2.members) == 0
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    assert frame_dimension(q.complex, q.members) == 1
    with pytest.raises(ValueError, match="^frame dimension of the empty subset is undefined$"):
        frame_dimension(q.complex, frozenset())


def test_frame_acyclic_low_dimensions(rng):
    for _ in range(8):
        u = random_molecule(rng, max_elements=25)
        rep = frame_acyclic(u.complex)
        assert rep.ok
        assert rep


def test_k_order_exists_at_codimension_one(rng):
    for _ in range(10):
        u = random_molecule(rng, max_elements=30)
        if u.dim == 0:
            continue
        assert k_order(u, u.dim - 1) is not None


def test_k_order_globe():
    assert k_order(globe_molecule(2), 0).sequence == ("2",)


def test_k_order_frob_is_deterministic():
    F = frob()
    seq = k_order(F.molecule, 2).sequence
    assert seq == (F["phi"], F["psi"])


def test_k_orders_exist_from_level_0_to_below_the_dimension():
    u = paste(u_cell(1, 1), u_cell(1, 1), 1)
    assert k_order(u, 1).sequence == ("left/top", "right/top")
    assert not is_k_order(u, 1, ("right/top", "left/top"))
    for k in (-1, 2):
        with pytest.raises(ValueError, match="k must be at least 0 and below the molecule dimension"):
            k_order(u, k)
    # the level -1 frame graph has no edges, which would let any order through
    for seq in (("left/top", "right/top"), ("right/top", "left/top")):
        assert not is_k_order(u, -1, seq)


def test_frame_decomposition_two_factor():
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    order = k_order(q, 1)
    factors = frame_decomposition(q, 1, order)
    assert len(factors) == 2
    rebuilt = frozenset().union(*[f.members for f in factors])
    assert rebuilt == q.members


def test_frame_decomposition_single_atom():
    u = u_cell(2, 1)
    factors = frame_decomposition(u, 1, k_order(u, 1))
    assert len(factors) == 1 and factors[0].members == u.members


def test_frame_decomposition_frob():
    F = frob()
    cx = F.molecule.complex
    v1, v2 = frame_decomposition(F.molecule, 2, k_order(F.molecule, 2))
    assert v1.members == cx.closure([F["phi"]]) | cx.boundary(
        cx.closure([F["psi"]]), 2, MINUS
    )
    assert v2.members == cx.closure([F["psi"]]) | cx.boundary(
        cx.closure([F["phi"]]), 2, PLUS
    )


def test_frame_decomposition_rebuilds_under_any_k(rng):
    for _ in range(10):
        u = random_molecule(rng, max_elements=30)
        if len(u.complex.maximal(u.members)) < 2:
            continue
        frd = frame_dimension(u.complex, u.members)
        for k in range(max(frd, 0), u.dim):
            order = k_order(u, k)
            if order is None:
                continue
            factors = frame_decomposition(u, k, order)
            assert frozenset().union(*[f.members for f in factors]) == u.members
            for f, x in zip(factors, order.sequence):
                assert x in f.members


def test_totally_loop_free_examples():
    i = interval_chain(1)
    rep = totally_loop_free(i.complex, i.members)
    assert rep.acyclic and rep.total
    # globes chain their hemispheres: the order stays total in any dimension
    o3 = globe(3)
    rep = totally_loop_free(o3)
    assert rep.acyclic and rep.total
    assert rep.order == ("0-", "1-", "2-", "3", "2+", "1+", "0+")
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    rep = totally_loop_free(q.complex, q.members)
    assert rep.acyclic and rep.total


def test_loop_freeness_fails_in_dimension_three():
    # two independent rewrites let a descending wire re-enter an earlier
    # frame through a shared vertex: the oriented Hasse graph loops
    F = frob()
    cx, members = F.molecule.complex, F.molecule.members
    rep = totally_loop_free(cx, members)
    assert not rep.acyclic and not rep.total and rep.order is None
    assert_cycle(cx.oriented_hasse(members), rep.cycle)
    assert rep.reach is None
    with pytest.raises(ValueError, match="^precedence undefined on a looping subset$"):
        rep.preceq(*rep.cycle[:2])


def test_acyclic_but_partial_reachability():
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
    rep = totally_loop_free(cx)
    assert rep.acyclic and not rep.total and rep.order is None


def test_two_molecule_precedence_total(rng):
    for _ in range(15):
        u = random_2_molecule(rng, max_elements=30)
        rep = totally_loop_free(u.complex, u.members)
        assert rep.acyclic and rep.total


def test_maxd_path_implies_precedence(rng):
    for _ in range(10):
        u = random_2_molecule(rng, max_elements=30)
        rep = totally_loop_free(u.complex, u.members)
        maximal = u.complex.maximal(u.members)
        for k in (0, 1):
            g = maxd(u.complex, u.members, k)
            for x in g.high:
                for y in g.reachable(x):
                    if y in maximal and y != x:
                        assert rep.preceq(x, y)


def test_reachable_includes_a_vertex_exactly_when_it_lies_on_a_cycle():
    # a hand-built graph: a and x form a cycle, c has a loop, b is a sink
    g = MaxdGraph(0, ("a", "b", "c"), ("x",), {"a": ("x",), "b": (), "c": ("c",), "x": ("a", "b")})
    assert g.reachable("a") == g.reachable("x") == {"a", "b", "x"}
    assert g.reachable("b") == frozenset()
    assert g.reachable("c") == {"c"}
    assert not g.acyclic


def test_normal_1_order_atom():
    assert normal_1_order(u_cell(2, 1)).sequence == ("top",)
    with pytest.raises(ValueError, match="^normal 1-orders exist on 2-dimensional molecules only$"):
        normal_1_order(interval_chain(2))


def test_normal_1_order_theta_with_hubs():
    # two hub cells with two cells on each arc between them; the canonical
    # order runs bottom hub, left arc upward, right arc upward, top hub
    o1 = globe_molecule(1)
    layer = lambda m, left: (
        paste(m, o1, 0) if left else paste(o1, m, 0)
    )
    u = paste(u_cell(1, 2), layer(u_cell(1, 1), True), 1)
    c2 = u.right_map["left/top"]
    u2 = paste(u, layer(u_cell(1, 1), True), 1)
    c3 = u2.right_map["left/top"]
    u3 = paste(u2, layer(u_cell(1, 1), False), 1)
    c4 = u3.right_map["right/top"]
    u4 = paste(u3, layer(u_cell(1, 1), False), 1)
    c5 = u4.right_map["right/top"]
    full = paste(u4, u_cell(2, 1), 1)
    assert full.right_map is not None and full.left_map is not None
    c6 = full.right_map["top"]
    hub1 = full.left_map["left/left/left/left/top"]
    seq = normal_1_order(full).sequence
    order = [hub1] + [
        full.left_map[p]
        for p in (
            u4.left_map[u3.left_map[u2.left_map[c2]]],
            u4.left_map[u3.left_map[c3]],
            u4.left_map[c4],
            c5,
        )
    ] + [c6]
    assert list(seq) == order


def test_normal_1_order_frob_input():
    F = frob()
    cx = F.molecule.complex
    bd = recognize(cx, cx.boundary(F.molecule.members, 2, MINUS))
    assert normal_1_order(bd).sequence == (F["x"], F["z"], F["w"], F["y"])


def test_slice_decomposition_one_molecule():
    i2 = interval_chain(2)
    lo, hi = slice_decomposition(i2, i2)
    assert lo.members == hi.members == i2.members


def test_slice_decomposition_atom_cuts():
    u = u_cell(2, 1)
    cx = u.complex
    lo_cut = recognize(cx, cx.boundary(u.members, 1, MINUS))
    lo, hi = slice_decomposition(u, lo_cut)
    assert lo.members == lo_cut.members and hi.members == u.members
    hi_cut = recognize(cx, cx.boundary(u.members, 1, PLUS))
    lo, hi = slice_decomposition(u, hi_cut)
    assert lo.members == u.members and hi.members == hi_cut.members


def _slices(u, cut: frozenset[str]) -> list[tuple[frozenset[str], frozenset[str]]]:
    """Oracle: every bipartition of the 2-cells of ``u`` that meets the slice
    conditions along ``cut``, as (below, above)."""
    cx = u.complex
    cells = sorted(x for x in u.members if cx.dim_of(x) == 2)
    solutions = []
    for r in range(len(cells) + 1):
        for group in combinations(cells, r):
            below = cx.closure(group) | cut
            above = cx.closure(set(cells) - set(group)) | cut
            if (
                below | above == u.members
                and below & above == cut
                and cx.boundary(below, 1, PLUS) == cut
                and cx.boundary(above, 1, MINUS) == cut
            ):
                solutions.append((below, above))
    return solutions


def test_slice_decomposition_unique(rng):
    # there must be exactly one slice along the input boundary
    for _ in range(5):
        u = random_2_molecule(rng, max_elements=22)
        cx = u.complex
        # slice_decomposition refuses no loop, as a 2-molecule's Hasse order is unique
        rep = totally_loop_free(cx, u.members)
        assert rep.total
        assert normal_order_of_subset(cx, u.members) == tuple(x for x in rep.order if cx.dim_of(x) == 2)
        cut = recognize(cx, cx.boundary(u.members, 1, MINUS))
        lo, hi = slice_decomposition(u, cut)
        assert _slices(u, cut.members) == [(lo.members, hi.members)]


def test_slice_decomposition_cuts_where_a_cell_on_one_side_meets_one_on_the_other():
    # the cut runs through the middle point: the cell below it is right of
    # that point, the cell above it left, and the cut wire ending there is
    # the input of the cell above
    o1 = globe_molecule(1)
    first = paste(o1, u_cell(1, 1), 0)
    second = paste(u_cell(1, 1), o1, 0)
    u = paste(first, second, 1)
    cx = u.complex
    cut = recognize(cx, frozenset(u.left_map[x] for x in first.boundary(1, PLUS)))
    lo, hi = slice_decomposition(u, cut)
    assert lo.members == frozenset(u.left_map.values())
    assert hi.members == frozenset(u.right_map.values())
    assert _slices(u, cut.members) == [(lo.members, hi.members)]


def test_slice_decomposition_cuts_between_the_factors_of_a_frame_decomposition():
    # each interior cut: the output 1-boundary of a prefix of the factors
    rng = random.Random(27)
    cuts = 0
    for _ in range(60):
        u = random_2_molecule(rng, max_elements=30)
        cx = u.complex
        factors = frame_decomposition(u, 1, k_order(u, 1))
        prefix = frozenset()
        for f in factors[:-1]:
            prefix |= f.members
            cut = cx.boundary(prefix, 1, PLUS)
            lo, hi = slice_decomposition(u, recognize(cx, cut))
            assert lo.members == prefix
            assert _slices(u, cut) == [(lo.members, hi.members)]
            cuts += 1
    assert cuts > 200


def test_frame_decomposition_refusals():
    q = paste(u_cell(2, 1), u_cell(1, 2), 1)
    order = k_order(q, 1)
    with pytest.raises(ValueError, match="^k must be at least the frame dimension$"):
        frame_decomposition(q, 0, KOrder(0, order.sequence))
    for bad in (KOrder(2, order.sequence), KOrder(1, order.sequence[::-1]), KOrder(1, order.sequence[:1])):
        with pytest.raises(ValueError, match="^not a k-order for this molecule$"):
            frame_decomposition(q, 1, bad)
    # hand-built handles on arrows that are no molecule, each with a 0-order
    points = {"p": (0, []), "q": (0, []), "r": (0, [])}
    arrow = lambda s, t: (1, [(s, MINUS), (t, PLUS)])
    for arrows, message in (
        # two parallel arrows, then a third: the first cut has no split
        ({"a": arrow("p", "q"), "b": arrow("p", "q"), "c": arrow("q", "r")}, "split failed at index 0"),
        # a stray point lies in both halves of every cut
        ({"z": (0, []), "a": arrow("p", "q"), "c": arrow("q", "r")}, "factor at index 0 is not a molecule"),
        ({"z": (0, []), "a": arrow("p", "q")}, "tail is not a molecule"),
    ):
        cx = Complex("arrows", {**points, **arrows})
        sequence = tuple(x for x in sorted(arrows) if x != "z")
        with pytest.raises(RuntimeError, match=f"^frame decomposition {message}$"):
            frame_decomposition(Molecule(cx, cx.whole(), Atom("a")), 0, KOrder(0, sequence))


def test_slice_decomposition_refusals():
    u = u_cell(2, 1)
    cx = u.complex
    lo_cut = recognize(cx, cx.boundary(u.members, 1, MINUS))
    with pytest.raises(ValueError, match="^slice decomposition applies up to dimension 2$"):
        slice_decomposition(globe_molecule(3), globe_molecule(3))
    # a cut in another complex, and one in this complex outside the molecule
    inner = recognize(cx, cx.closure(["left/left/1"]))
    for cut, within in ((recognize(lo_cut.as_complex(), lo_cut.members), u), (lo_cut, inner)):
        with pytest.raises(ValueError, match="^the cut must be a subset of the molecule$"):
            slice_decomposition(within, cut)
    # both wire layers of the cell span its end points, but are no molecule
    wires = Molecule(cx, u.members - {"top"}, Atom("top"))
    with pytest.raises(ValueError, match="^a 1-molecule is only cut along itself$"):
        slice_decomposition(wires, lo_cut)
    with pytest.raises(ValueError, match="^the cut does not slice the molecule$"):
        slice_decomposition(u, wires)
    # hand-built handles on the cell and on its input wire, each with a stray
    # point: the halves meet in the cut, but neither is a molecule
    o2 = u_cell(1, 1).complex
    stray = Complex("stray", {"z": (0, []), **{x: (o2.dim_of(x), o2.covers(x)) for x in o2}})
    cut = Molecule(stray, o2.boundary(o2.whole(), 1, MINUS) | {"z"}, Atom("z"))
    with pytest.raises(RuntimeError, match="^slice halves failed molecule recognition$"):
        slice_decomposition(Molecule(stray, stray.whole(), Atom("top")), cut)


def test_slice_decomposition_rejects_nonspanning():
    u = paste(u_cell(2, 1), u_cell(1, 1), 0)
    cx = u.complex
    wire = next(x for x in u.boundary(1, MINUS) if cx.dim_of(x) == 1)
    cut = recognize(cx, cx.closure([wire]))
    with pytest.raises(ValueError):
        slice_decomposition(u, cut)


def test_sim_substitution_disjoint_atoms():
    u = paste(u_cell(1, 1), u_cell(1, 1), 0)
    cx = u.complex
    cells = [x for x in u.members if cx.dim_of(x) == 2]
    v = cx.closure([cells[0]])
    w = cx.closure([cells[1]])
    assert check_sim_substitution(u, v, w)


def test_sim_substitution_same_atom():
    u = u_cell(2, 1)
    v = u.complex.closure(["top"])
    assert check_sim_substitution(u, v, v)


def test_sim_substitution_power_counterexample():
    P = power()
    u = P.molecule
    cx = u.complex
    v = cx.closure([P["lam"], P["tau"]])
    w = cx.closure([P["rho"], P["beta"]])
    report = check_sim_substitution(u, v, w)
    assert not report
    assert report.blocked_path is not None
    vm = recognize(cx, v)
    collapsed = substitute(u, v, compos(vm))
    assert collapsed.left_map is not None and collapsed.right_map is not None
    hole = collapsed.right_map["top"]
    expected = tuple(
        collapsed.left_map.get(P[n], hole) if n != "<V>" else hole
        for n in ("rho", "y", "<V>", "x", "beta")
    )
    assert report.blocked_path == expected


def test_sim_substitution_hypothesis_violations():
    u = paste(u_cell(2, 1), u_cell(1, 2), 1)
    cells = sorted(x for x in u.members if u.complex.dim_of(x) == 2)
    overlapping = u.members  # the whole thing against one cell: interiors meet
    with pytest.raises(ValueError, match="^sites overlap beyond their boundaries$"):
        check_sim_substitution(u, overlapping, u.complex.closure([cells[0]]))
    for m in (globe_molecule(1), globe_molecule(4)):
        with pytest.raises(ValueError, match="^simultaneous substitution is checked in dimensions 2 and 3$"):
            check_sim_substitution(m, m.members, m.members)
    u = u_cell(2, 1)
    points = frozenset(x for x in u.members if u.complex.dim_of(x) == 0)  # three points, no molecule
    for bad, what in ((frozenset({"top"}), "is not a closed subset of the molecule"), (points, "is not a molecule")):
        with pytest.raises(ValueError, match=f"^first site {what}$"):
            check_sim_substitution(u, bad, u.members)
        with pytest.raises(ValueError, match=f"^second site {what}$"):
            check_sim_substitution(u, u.members, bad)
    side_by_side = paste(u_cell(1, 1), u_cell(1, 1), 0)
    with pytest.raises(ValueError, match="^first site does not have a spherical boundary$"):
        check_sim_substitution(side_by_side, side_by_side.members, side_by_side.members)


def test_sim_substitution_with_a_site_below_the_top_dimension():
    # the second site, a boundary of the first, cannot be collapsed once the
    # first is: the cell above is attached to its inside
    u = u_cell(2, 1)
    with pytest.raises(RuntimeError, match="^dimension-2 simultaneous substitution must not fail$"):
        check_sim_substitution(u, u.members, u.boundary(1, MINUS))
    # in dimension 3 that is a failure, with no 3-cell in the site to block
    u = cell_to(paste(globe_molecule(2), globe_molecule(2), 1), globe_molecule(2))
    report = check_sim_substitution(u, u.members, u.boundary(2, MINUS))
    assert not report and report.blocked_path is None
    assert report.detail == (
        "context is attached to the interior of the site and the replacement is not an isomorphic copy"
    )


def test_frame_decomposition_designates_uniquely(rng):
    for _ in range(8):
        u = random_molecule(rng, max_elements=30)
        if len(u.complex.maximal(u.members)) < 2 or u.dim == 0:
            continue
        order = k_order(u, u.dim - 1)
        assert order is not None
        factors = frame_decomposition(u, u.dim - 1, order)
        for i, f in enumerate(factors):
            inside = [x for x in order.sequence if x in f.members]
            assert inside == [order.sequence[i]]


def test_sim_substitution_always_succeeds_in_dimension_two(rng):
    from pastekit import enumerate_molecules, spherical

    checked = 0
    while checked < 6:
        u = random_2_molecule(rng, max_elements=24)
        cx = u.complex
        pool, _ = enumerate_molecules(cx, 300)
        twos = [
            m
            for m in pool
            if cx.dim_of_subset(m.members) == 2 and spherical(m)
        ]
        pairs = [
            (v, w)
            for v in twos
            for w in twos
            if v.members != w.members
            and (v.members & w.members)
            <= (cx.boundary(v.members, None) | cx.boundary(w.members, None))
        ]
        if not pairs:
            continue
        rng.shuffle(pairs)
        for v, w in pairs[:3]:
            assert check_sim_substitution(u, v.members, w.members)
        checked += 1
