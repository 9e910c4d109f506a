"""The cached and one-pass paths of ogp, orders and molecules against plain references.

Each reference recomputes from the covers on every call, the way the
library did before it kept per-element facts: a cover-walking closure, a
cover test for maximal elements, a boundary built per level and sign, the
pairwise frame dimension, the level-n frame graph from per-call atom
boundaries, a heap-free Kahn loop (`ref_lex_prefix`, which also checks the
library's one sort `_lex_topo`, its one totality test `_unique_topo` with a
test that consecutive vertices are joined, and whether `_find_cycle` finds
a cycle) over that graph's ids for the order of its high cells, and an
enumeration that recomputes every boundary of a member set when it is
added and again when it is popped.  `is_k_order` is checked against
reachability in the frame graph (`ref_is_k_order`).
`Complex.cofaces` and `Complex.by_dim` read the index, so they are checked
against a walk of the covers.  `unique_iso` pairs the two subsets' oriented
Hasse graphs along their one topological order when both have one, and
only otherwise matches elements bottom-up through their covers;
`ref_unique_iso` keeps the top-down search through cofaces, and the two must
agree on the map, ``None`` or the "not unique" error, on pairs chosen to
take both ways.
`validate_complex` checks each cell from one sweep of its boundaries, so it
is checked against `ref_validate`, which recomputes every boundary per level
and sign, on every complex.
Recognition, validation and graycat's precedences are remembered by each
complex, so they are also checked on a complex whose memo is already full,
on complexes derived from it, and on one complex shared by several
threads.  Pasting has one path in the library, so `ref_paste` keeps the
two-factor glue, one two-part `_glue` table per step with ``left/`` and
``right/`` ids: `paste`, the fold of `paste` and `_paste_all`'s one n-part
table are checked against it and its left fold.  `sigma_star_expr` reverses
the positive word of the inverse permutation read back from its target, and
`ref_sigma_star_expr` keeps the walk that rebuilds the inverse word position
by position from the source.  `block_sigma` reads its inverse word off its
positive word backwards, and the inverse word of the inverse permutation on
the column-major word is kept as its reference.
`_to_normal_swaps` sorts an order top-down, each cell in turn moving right
past the lower-ranked cells after it; `ref_to_normal_swaps` rescans every
adjacent pair before each swap and takes the largest out-of-place one.
`interchanger_path` builds its forward steps from the second sort's swaps
reversed; `ref_interchanger_path` replays them on the order to read each
pair.  The two must give the same path on rows of 2-globes and on frob's
boundaries.
Recognition tries one split at each cut of a frame order, the one `_cut`
builds from the cells after the cut; `ref_recognize` keeps both candidates
of `ref_split_candidates`, from the cells after the cut and from the cells
before it, as the reference, and at every cut the two must be both splits
or neither, the same split when both, and the split `_cut` returns.
The frame-loop test of frame acyclicity is checked against
`_Index.frame_order`.  Recognition reads a 1-dimensional path off one walk
(`_Index.path`) and refuses other masks whose arrows all have both ends
(`_Index.two_ended`), so it is checked against the split search with both
switched off, and the boundaries of enumerated pastings against the rule
that derives them from their halves.  The canonical JSON writer `_dump` is
checked against ``json.dumps(indent=2)`` (`ref_dump`), json's own
indenting encoder, on every document the golden tests write, the shipped
fixtures and random JSON values.

The complexes are random molecules, their duals, and copies with one cover
sign flipped.  The flipped copies are usually not regular, which is where a
shortcut that only holds for regular complexes (such as deriving the
boundaries of a pasting from those of its halves) would show.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import sys
import threading
from collections import Counter
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_golden
from conftest import assert_cycle, random_molecule
from pastekit import (
    Atom,
    Complex,
    KOrder,
    MINUS,
    Molecule,
    PLUS,
    Pasting,
    PastingError,
    UNKNOWN,
    builtin,
    cell_to,
    certificate_json,
    certificate_ok,
    compos,
    enumerate_molecules,
    expr_normalize,
    frame_acyclic,
    frame_decomposition,
    frame_dimension,
    globe,
    gray_product,
    globe_molecule,
    interpret,
    interpret_atom_in_context,
    interval_chain,
    k_order,
    maxd,
    paste,
    recognize,
    spherical,
    spherical_boundary,
    u_cell,
    validate_complex,
)
from pastekit.graycat import GrayExpr3, Interchange, TwoCellNF, _precedence, _to_normal_swaps, interchanger_path, walk
from pastekit.molecules import _fold, _glue, _mismatch, _paste_all, _rename, unique_iso, whole
from pastekit.ogp import ElementReport, ValidationReport, _Index, _lex_topo, _unique_topo
from pastekit.orders import _find_cycle, _frame_graph, _frame_loops, is_k_order
from pastekit.theories import BraidInv, Layered2Cell, Permutation, Slice, block_sigma, sigma_expr, sigma_star_expr
from pastekit import molecules, serialize
from pastekit.fixtures import fixture_files, frob
from pastekit.render import _wire_sequence
from pastekit.serialize import _dump, parse_complex, serialize_complex, serialize_expr

SIGNS = (MINUS, PLUS)


def ref_closure(cx: Complex, members) -> frozenset[str]:
    out: set[str] = set()
    stack = list(members)
    while stack:
        x = stack.pop()
        if x not in out:
            out.add(x)
            stack.extend(t for t, _ in cx.covers(x))
    return frozenset(out)


def ref_maximal(cx: Complex, members) -> frozenset[str]:
    covered = {t for y in members for t, _ in cx.covers(y)}
    return frozenset(x for x in members if x not in covered)


def ref_boundary(cx: Complex, members: frozenset[str], n: int, sign: str) -> frozenset[str]:
    if n < 0:
        return frozenset()
    against = {t for y in members for t, s in cx.covers(y) if s != sign}
    source = [x for x in members if cx.dim_of(x) == n and x not in against]
    high = [x for x in members if cx.dim_of(x) > n]
    return ref_closure(cx, source) | (members - ref_closure(cx, high))


def ref_frame_dimension(cx: Complex, members: frozenset[str]) -> int:
    maximal = sorted(cx.maximal(members))
    closures = {x: ref_closure(cx, [x]) for x in maximal}
    best = -1
    for i, x in enumerate(maximal):
        for y in maximal[i + 1 :]:
            best = max(best, cx.dim_of_subset(closures[x] & closures[y]))
    return best


def ref_maxd_adjacency(cx: Complex, members: frozenset[str], n: int) -> dict[str, tuple[str, ...]]:
    low = [x for x in members if cx.dim_of(x) <= n]
    high = [x for x in cx.maximal(members) if cx.dim_of(x) > n]
    adj: dict[str, set[str]] = {v: set() for v in low + high}
    for x in high:
        cl = ref_closure(cx, [x])
        rim = ref_boundary(cx, cl, n - 1, MINUS) | ref_boundary(cx, cl, n - 1, PLUS)
        adj_in = ref_boundary(cx, cl, n, MINUS) - rim
        adj_out = ref_boundary(cx, cl, n, PLUS) - rim
        for y in low:
            if y in adj_in:
                adj[y].add(x)
            if y in adj_out:
                adj[x].add(y)
    return {v: tuple(sorted(ws)) for v, ws in sorted(adj.items())}


def ref_enumerate(cx: Complex, max_count: int = 10_000) -> tuple[list[Molecule], bool]:
    pool: dict[frozenset[str], Atom | Pasting] = {}
    by_bminus: dict[tuple[int, frozenset[str]], list[frozenset[str]]] = {}
    by_bplus: dict[tuple[int, frozenset[str]], list[frozenset[str]]] = {}

    def boundaries(m):
        for k in range(cx.dim):
            yield k, ref_boundary(cx, m, k, MINUS), ref_boundary(cx, m, k, PLUS)

    work: list[frozenset[str]] = []
    truncated = False

    def add(members, cert):
        nonlocal truncated
        if members in pool:
            return
        if len(pool) >= max_count:
            truncated = True
            return
        pool[members] = cert
        work.append(members)
        for k, bm, bp in boundaries(members):
            by_bminus.setdefault((k, bm), []).append(members)
            by_bplus.setdefault((k, bp), []).append(members)

    for x in cx.elements():
        add(ref_closure(cx, [x]), Atom(x))
    while work and not truncated:
        m = work.pop()
        cert = pool[m]
        for k, bm, bp in boundaries(m):
            for other in list(by_bminus.get((k, bp), ())):
                if other & m == bp and other | m not in (m, other):
                    add(other | m, Pasting(k, cert, pool[other]))
            for other in list(by_bplus.get((k, bm), ())):
                if other & m == bm and other | m not in (m, other):
                    add(other | m, Pasting(k, pool[other], cert))
    out = sorted(pool, key=lambda m: (len(m), tuple(sorted(m))))
    return [Molecule(cx, m, pool[m]) for m in out], truncated


def flip_one_sign(cx: Complex, rng: random.Random) -> Complex:
    """A copy of ``cx`` with the sign of one randomly chosen cover reversed."""
    x = rng.choice([y for y in cx.elements() if cx.dim_of(y) >= 1])
    covers = list(cx.covers(x))
    i = rng.randrange(len(covers))
    t, s = covers[i]
    covers[i] = (t, MINUS if s == PLUS else PLUS)
    table = {y: (cx.dim_of(y), cx.covers(y)) for y in cx.elements()}
    table[x] = (cx.dim_of(x), covers)
    return Complex(f"{cx.name}~{x}", table)


def _complexes() -> list[Complex]:
    rng = random.Random(0x5EF)
    out = []
    for _ in range(14):
        cx = random_molecule(rng, max_elements=28).complex
        out += [cx, cx.dual(), flip_one_sign(cx, rng)]
    return out


COMPLEXES = _complexes()


@pytest.fixture(scope="module")
def enumerated() -> list[tuple[Complex, list[Molecule], bool]]:
    """Each complex with its reference enumeration (computed once)."""
    return [(cx, *ref_enumerate(cx)) for cx in COMPLEXES]


def _subsets(cx: Complex, rng: random.Random, count: int) -> list[list[str]]:
    ids = cx.elements()
    return [rng.sample(ids, rng.randint(0, min(6, len(ids)))) for _ in range(count)]


def test_closure_matches_the_cover_walk():
    rng = random.Random(1)
    for cx in COMPLEXES:
        for x in cx.elements():
            assert cx.closure([x]) == ref_closure(cx, [x])
        for sub in _subsets(cx, rng, 20):
            assert cx.closure(sub) == ref_closure(cx, sub)
            assert cx.closure(iter(sub)) == ref_closure(cx, sub)
            assert cx.maximal(frozenset(sub)) == ref_maximal(cx, frozenset(sub))
        with pytest.raises(KeyError):
            cx.closure([cx.elements()[0], "no such element"])


def index_boundaries(cx: Complex, members: frozenset[str], top: int) -> list[tuple[frozenset[str], ...]]:
    """``_Index.boundaries`` of a member set, as member sets."""
    ix = cx._index()
    return [tuple(ix.members(b) for b in pair) for pair in ix.boundaries(ix.mask(members), top)]


def index_atom_boundary(cx: Complex, x: str, n: int, sign: str | None = None) -> frozenset[str]:
    """One sign of the pair ``_Index.boundary`` gives for an element's closure,
    or with ``sign`` omitted their union, as a member set."""
    ix = cx._index()
    minus, plus = ix.boundary(ix.down[ix.pos[x]], n)
    return ix.members(minus | plus if sign is None else minus if sign == MINUS else plus)


def test_boundaries_match_per_call_boundary(enumerated):
    for cx, found, _ in enumerated:
        # the empty set, the whole complex, every atom and every enumerated member set
        sets = {frozenset(), cx.whole(), *(cx.closure([x]) for x in cx.elements()), *(m.members for m in found)}
        for m in sets:
            assert cx.maximal(m) == ref_maximal(cx, m)
            want = [tuple(ref_boundary(cx, m, k, s) for s in SIGNS) for k in range(cx.dim)]
            assert index_boundaries(cx, m, cx.dim) == want
            # a top below the set's dimension computes only the lower levels
            assert index_boundaries(cx, m, cx.dim - 1) == want[: cx.dim - 1]
            for k in range(-1, cx.dim + 1):
                for s in SIGNS:
                    assert cx.boundary(m, k, s) == ref_boundary(cx, m, k, s)
        for x in cx.elements():
            cl = ref_closure(cx, [x])
            for k in range(-1, cx.dim_of(x) + 1):
                for s in SIGNS:
                    assert index_atom_boundary(cx, x, k, s) == ref_boundary(cx, cl, k, s)
                both = ref_boundary(cx, cl, k, MINUS) | ref_boundary(cx, cl, k, PLUS)
                assert index_atom_boundary(cx, x, k) == both


def test_frame_dimension_and_frame_graphs_match_the_pairwise_reference(enumerated):
    for cx, found, _ in enumerated:
        for u in found:
            assert frame_dimension(cx, u.members) == ref_frame_dimension(cx, u.members)
            for n in range(cx.dim_of_subset(u.members)):
                assert maxd(cx, u.members, n).adjacency == ref_maxd_adjacency(cx, u.members, n)


def ref_lex_prefix(adj: dict) -> list:
    """Take the least vertex with no predecessor left until none is ready:
    no heap and no counts, each round rescans every edge."""
    left = set(adj)
    out = []
    while True:
        ready = [v for v in left if not any(v in adj[u] for u in left)]
        if not ready:
            return out
        out.append(min(ready))
        left.remove(out[-1])


def ref_lex_topo(adj: dict) -> list | None:
    """`ref_lex_prefix` when it takes every vertex, None when the graph loops."""
    out = ref_lex_prefix(adj)
    return out if len(out) == len(adj) else None


def _random_digraph(rng: random.Random) -> dict:
    """Up to 8 vertices, named by strings or by ints, with random edges;
    self-loops and repeated edges are allowed."""
    n = rng.randint(0, 8)
    names = rng.sample(range(100), n) if rng.random() < 0.5 else rng.sample([f"v{i}" for i in range(20)], n)
    density = rng.random() / 2
    return {
        v: [w for w in names for _ in range(rng.randint(1, 2)) if rng.random() < density]
        for v in names
    }


def test_lex_topo_matches_the_naive_kahn_loop():
    rng = random.Random(0x70B0)
    outcomes = Counter()
    for _ in range(3000):
        adj = _random_digraph(rng)
        want = ref_lex_topo(adj)
        # the whole order on an acyclic graph, the vertices taken before it stops on a looping one
        assert _lex_topo(adj) == ref_lex_prefix(adj), adj
        # the order is the only one when consecutive vertices are joined by an edge
        only = want if want is not None and all(w in adj[v] for v, w in zip(want, want[1:])) else None
        assert _unique_topo(adj) == only, adj
        outcomes["loop" if want is None else "one order" if only is not None else "orders"] += 1
    assert outcomes["one order"] > 100 and outcomes["orders"] and outcomes["loop"], outcomes


def test_find_cycle_returns_a_cycle_exactly_when_the_graph_loops():
    rng = random.Random(0xC7C1E)
    loops = 0
    for _ in range(3000):
        adj = _random_digraph(rng)
        cycle = _find_cycle(adj)
        if ref_lex_topo(adj) is None:
            assert cycle is not None, adj
            assert_cycle(adj, cycle)
            loops += 1
        else:
            assert cycle is None, adj
    assert loops > 300, loops


def ref_high_order(cx: Complex, members: frozenset[str], k: int) -> list[str] | None:
    """The high cells of the level-k frame graph in `ref_lex_topo` order over its ids."""
    ix = cx._index()
    g = _frame_graph(ix, ix.mask(members), k)
    order = ref_lex_topo(g.adjacency)
    return None if order is None else [x for x in order if x in g.high]


def test_frame_order_and_k_order_match_lex_topo_over_the_frame_graph(enumerated):
    outcomes = set()
    for cx, found, _ in enumerated:
        ix = cx._index()
        for u in found:
            m = ix.mask(u.members)
            for k in range(max(frame_dimension(cx, u.members), 0), u.dim):
                want = ref_high_order(cx, u.members, k)
                got = ix.frame_order(m, ix.maximal(m), k)
                assert (None if got is None else [ix.ids[i] for i in got]) == want
                order = k_order(u, k)
                assert (None if order is None else list(order.sequence)) == want
                outcomes.add(want is None)
    assert outcomes == {True, False}


def ref_is_k_order(u: Molecule, k: int, sequence) -> bool:
    """Whether ``sequence`` lists the high cells of the level-k frame graph,
    none of them reaching a cell listed before it."""
    g = maxd(u.complex, u.members, k)
    if sorted(sequence) != sorted(g.high):
        return False
    pos = {x: i for i, x in enumerate(sequence)}
    for x in g.high:
        for y in g.reachable(x):
            if y in pos and pos[y] < pos[x]:
                return False
    return True


def _orders(rng: random.Random, cells: list[str], count: int) -> list[tuple[str, ...]]:
    """Every order of ``cells`` when there are at most ``count``, else ``count`` shuffles,
    and ``cells`` with its last cell dropped or repeated."""
    if math.factorial(len(cells)) <= count:
        orders = list(itertools.permutations(cells))
    else:
        orders = [tuple(rng.sample(cells, len(cells))) for _ in range(count)]
    return orders + [tuple(cells[:-1]), tuple(cells + cells[-1:])]


def test_is_k_order_matches_reachability_in_the_frame_graph(enumerated):
    rng = random.Random(0x0D3)
    outcomes = set()
    for cx, found, _ in enumerated:
        for u in found[::3]:  # about 21,000 orders, 3,800 of them k-orders
            for k in range(u.dim):
                cells = sorted(maxd(cx, u.members, k).high)
                for seq in _orders(rng, cells, 24):
                    want = ref_is_k_order(u, k, seq)
                    assert is_k_order(u, k, seq) == want, (cx.name, sorted(u.members), k, seq)
                    outcomes.add(want)
    assert outcomes == {True, False}


def _digest(found: list[Molecule]) -> list[tuple[frozenset[str], dict]]:
    return [(u.members, certificate_json(u)) for u in found]


def test_enumeration_matches_the_recomputing_reference(enumerated):
    for cx, found, truncated in enumerated:
        got, got_truncated = enumerate_molecules(cx)
        assert _digest(got) == _digest(found)
        assert got_truncated == truncated
    # a small budget truncates both at the same set
    for cx in COMPLEXES[:9]:
        for budget in (1, 7, 20):
            got, got_truncated = enumerate_molecules(cx, budget)
            want, want_truncated = ref_enumerate(cx, budget)
            assert _digest(got) == _digest(want)
            assert got_truncated == want_truncated
    got, got_truncated = enumerate_molecules(interval_chain(5).complex, max_count=4)
    want, want_truncated = ref_enumerate(interval_chain(5).complex, max_count=4)
    assert _digest(got) == _digest(want) and got_truncated and want_truncated


def test_flipped_copies_are_not_all_regular():
    flipped = [cx for cx in COMPLEXES if "~" in cx.name]
    assert any(not validate_complex(cx).passed for cx in flipped)


def test_derived_complexes_do_not_share_caches():
    # a regular complex, and a flipped copy that fails validation
    for cx in (COMPLEXES[0], COMPLEXES[5]):
        _check_derived_complexes(cx)


def _check_derived_complexes(cx: Complex) -> None:
    top = max(cx.elements(), key=cx.dim_of)
    for x in cx.elements():
        index_atom_boundary(cx, x, cx.dim_of(x) - 1, MINUS)
    index_boundaries(cx, cx.whole(), cx.dim)
    for n in range(cx.dim):  # fills the index's cache of frame-graph sides
        maxd(cx, cx.whole(), n)
    # fills the index's recognition memo and validation report
    sets = _closed_sets(cx, ref_enumerate(cx)[0])
    for m in sets:
        recognize(cx, m)
    passed = validate_complex(cx).passed
    derived = [
        cx.dual(),
        cx.dual(dims=[1]),
        cx.relabel({top: "renamed"}),
        cx.relabel({}),
        cx.restrict(cx.closure([top])),
        cx.restrict(cx.whole()),
    ]
    verdicts = set()
    for d in derived:
        assert d._index() is not cx._index()
        # results on the derived complex come from its own covers
        for x in d.elements():
            assert d.closure([x]) == ref_closure(d, [x])
            for s in SIGNS:
                k = d.dim_of(x) - 1
                assert index_atom_boundary(d, x, k, s) == ref_boundary(d, ref_closure(d, [x]), k, s)
        for n in range(d.dim):
            assert maxd(d, d.whole(), n).adjacency == ref_maxd_adjacency(d, d.whole(), n)
        renamed = {x: "renamed" if x == top and "renamed" in d else x for x in cx.elements()}
        for m in sets:
            m = frozenset(renamed[x] for x in m)
            if m <= d.whole():
                assert _found(recognize(d, m)) == _found(ref_recognize(d, m)), (d.name, sorted(m))
        report = validate_complex(d)
        assert report == ref_validate(d)
        assert validate_complex(d) == report  # a second call reports the same
        verdicts.add(report.passed)
    # duals, relabellings and restrictions of a regular complex are regular;
    # a flipped copy's restriction to its top atom passes where the copy fails
    assert verdicts == ({True} if passed else {True, False})


def ref_frame_acyclic(cx: Complex, molecules: list[Molecule], truncated: bool) -> tuple:
    """The report's fields but its cycle, failing on the first molecule, in
    list order, whose frame graph at its frame dimension loops; and that
    graph, or None when no graph loops."""
    for checked, u in enumerate(molecules, 1):
        if len(ref_maximal(cx, u.members)) < 2:
            continue
        adj = ref_maxd_adjacency(cx, u.members, max(ref_frame_dimension(cx, u.members), 0))
        if ref_lex_topo(adj) is None:
            return (False, checked, truncated, u.members), adj
    return (True, len(molecules), truncated, None), None


def assert_report(r, cx: Complex, molecules: list[Molecule], truncated: bool) -> bool:
    """``r`` agrees with `ref_frame_acyclic`, and its cycle is one of the
    reference's looping graph; whether it passed."""
    want, adj = ref_frame_acyclic(cx, molecules, truncated)
    assert (r.ok, r.checked, r.truncated, r.witness) == want
    if adj is None:
        assert r.cycle is None
    else:
        assert_cycle(adj, r.cycle)
    return r.ok


def test_frame_acyclic_matches_the_per_molecule_reference():
    failing = 0
    for cx in COMPLEXES:
        # budget 40 truncates most enumerations and still reaches some loops
        for budget in (1, 7, 20, 40, None):
            found, truncated = enumerate_molecules(cx) if budget is None else enumerate_molecules(cx, budget)
            got = frame_acyclic(cx) if budget is None else frame_acyclic(cx, budget=budget)
            failing += not assert_report(got, cx, found, truncated)
            # an explicit list is checked in its own order, never truncated
            assert_report(frame_acyclic(cx, found[::-1]), cx, found[::-1], False)
    assert failing >= 3


def test_public_boundary_matches_the_reference_for_every_level_and_sign(enumerated):
    for cx, found, _ in enumerated:
        sets = {frozenset(), cx.whole(), *(cx.closure([x]) for x in cx.elements()), *(m.members for m in found)}
        for m in sets:
            for n in (None, *range(-1, cx.dim + 3)):
                level = cx.dim_of_subset(m) - 1 if n is None else n
                want = {s: ref_boundary(cx, m, level, s) for s in SIGNS}
                for s in SIGNS:
                    assert cx.boundary(m, n, s) == want[s]
                assert cx.boundary(m, n) == want[MINUS] | want[PLUS]
                assert cx.boundary(m, n, None) == want[MINUS] | want[PLUS]
                assert cx._boundary_pair(m, n) == (want[MINUS], want[PLUS])


def test_masks_and_ids_round_trip():
    rng = random.Random(2)
    for cx in COMPLEXES:
        ix = cx._index()
        # bits run in (dim, id) order, so a mask's top bit has its dimension
        assert list(ix.ids) == sorted(cx.elements(), key=lambda x: (cx.dim_of(x), x))
        assert ix.mask(cx.whole()) == (1 << len(cx)) - 1
        for sub in _subsets(cx, rng, 20):
            m = ix.mask(sub)
            assert m.bit_count() == len(sub)
            assert ix.members(m) == frozenset(sub)
            assert ix.dim(m) == cx.dim_of_subset(sub)
            assert ix.members(ix.closure(m)) == ref_closure(cx, sub)
            assert ix.members(ix.maximal(m)) == ref_maximal(cx, frozenset(sub))
        for _ in range(20):
            m = rng.getrandbits(len(cx))
            assert ix.mask(ix.members(m)) == m


def ref_fingerprints(cx: Complex, members: frozenset[str]) -> dict[str, tuple]:
    """`_fingerprints` with each member's up codes read from its cofaces."""
    fp = {x: (cx.dim_of(x),) for x in members}
    while True:
        nxt = {}
        for x in members:
            down = sorted((s, fp[t]) for t, s in cx.covers(x) if t in members)
            up = sorted((s, fp[y]) for y, s in cx.cofaces(x) if y in members)
            nxt[x] = (fp[x], tuple(down), tuple(up))
        # re-encode to keep the tuples from growing without bound
        codes = {v: i for i, v in enumerate(sorted(set(nxt.values())))}
        if len(codes) == len(set(fp.values())):
            return fp
        fp = {x: (cx.dim_of(x), codes[nxt[x]]) for x in members}


def ref_unique_iso(
    u: Molecule | tuple[Complex, frozenset[str]],
    v: Molecule | tuple[Complex, frozenset[str]],
) -> dict[str, str] | None:
    """`unique_iso` as a search from the top dimension down, each candidate
    checked by its signed cofaces inside the subset."""
    acx, a = (u.complex, u.members) if isinstance(u, Molecule) else u
    bcx, b = (v.complex, v.members) if isinstance(v, Molecule) else v
    if len(a) != len(b):
        return None
    fpa = ref_fingerprints(acx, a)
    fpb = ref_fingerprints(bcx, b)
    if sorted(fpa.values()) != sorted(fpb.values()):
        return None
    by_fp: dict[tuple, list[str]] = {}
    for y in sorted(b):
        by_fp.setdefault(fpb[y], []).append(y)
    # match from the top dimension down, so each element's cofaces are
    # matched before it
    order = sorted(a, key=lambda x: (-acx.dim_of(x), x))
    fwd: dict[str, str] = {}
    used: set[str] = set()
    found: list[dict[str, str]] = []

    def images(i: int) -> Iterator[str]:
        """The unused images of ``order[i]`` with its signed cofaces under
        ``fwd``; a generator, so it reads ``fwd`` when first drawn from."""
        x = order[i]
        # every signed cover is verified once, when its lower element is matched
        up = {(fwd[z], s) for z, s in acx.cofaces(x) if z in a}
        for y in by_fp.get(fpa[x], ()):
            if y not in used and up == {(z, s) for z, s in bcx.cofaces(y) if z in b}:
                yield y

    # depth-first over an explicit stack: trials[i] draws the images of
    # order[i], and fwd matches exactly order[:i] when it is drawn from
    trials = [images(0)]
    while trials and len(found) < 2:
        i = len(trials) - 1
        if i == len(order):
            found.append(dict(fwd))
            trials.pop()
            continue
        if order[i] in fwd:
            used.discard(fwd.pop(order[i]))
        y = next(trials[i], None)
        if y is None:
            trials.pop()
        else:
            fwd[order[i]] = y
            used.add(y)
            trials.append(images(i + 1))
    if not found:
        return None
    if len(found) > 1:
        raise RuntimeError(
            f"molecule isomorphism is not unique between {acx.name} and {bcx.name}; "
            "inputs are not regular molecules"
        )
    return found[0]

def _iso_outcome(f, u, v):
    """The map or ``None`` that ``f`` returns, or its ``RuntimeError``'s message."""
    try:
        return f(u, v)
    except RuntimeError as exc:
        return str(exc)


def _iso_sets(cx: Complex) -> list[frozenset[str]]:
    """The whole complex and each of its k-boundaries."""
    whole = cx.whole()
    return [whole, *(cx.boundary(whole, k, s) for k in range(cx.dim) for s in SIGNS)]


def test_cofaces_and_by_dim_match_the_cover_walk():
    for cx in [*COMPLEXES, Complex("empty", {})]:
        up: dict[str, list[tuple[str, str]]] = {x: [] for x in cx.elements()}
        for y in cx.elements():
            for t, s in cx.covers(y):
                up[t].append((y, s))
        for x in cx.elements():
            assert cx.cofaces(x) == tuple(sorted(up[x]))
        for n in range(-1, cx.dim + 3):
            assert cx.by_dim(n) == tuple(x for x in cx.elements() if cx.dim_of(x) == n)


def _cycles(*lengths: int) -> Complex:
    """Disjoint directed cycles of arrows; all of them get equal fingerprints."""
    table: dict = {}
    for c, n in enumerate(lengths):
        for i in range(n):
            table[f"{c}.{i}"] = (0, [])
            table[f"{c}.{i}a"] = (1, [(f"{c}.{i}", MINUS), (f"{c}.{(i + 1) % n}", PLUS)])
    return Complex("+".join(map(str, lengths)), table)


def _every_flip(cx: Complex) -> list[Complex]:
    """Each copy of ``cx`` with the sign of one cover reversed."""
    table = {y: (cx.dim_of(y), cx.covers(y)) for y in cx.elements()}
    out = []
    for x in cx.elements():
        for i, (t, s) in enumerate(cx.covers(x)):
            covers = list(cx.covers(x))
            covers[i] = (t, MINUS if s == PLUS else PLUS)
            out.append(Complex(f"{cx.name}~{x}.{i}", {**table, x: (cx.dim_of(x), covers)}))
    return out


def _with(cx: Complex, name: str, extra: dict) -> Complex:
    """``cx`` with the elements of ``extra`` added."""
    table = {y: (cx.dim_of(y), cx.covers(y)) for y in cx.elements()}
    return Complex(name, {**table, **extra})


def _four_cells(rng: random.Random, count: int) -> list[Complex]:
    """Atoms over random spherical 3-molecules, so that their 3-boundaries are 3-dimensional."""
    out = []
    while len(out) < count:
        u = random_molecule(rng, max_elements=28)
        if u.dim == 3 and spherical(u):
            out.append(cell_to(u, compos(u)).complex)
    return out


def test_unique_iso_matches_the_top_down_search(monkeypatch):
    rng = random.Random(0x150)
    arrow = [("0-", MINUS), ("0+", PLUS)]
    parallel = Complex("parallel", {"0-": (0, []), "0+": (0, []), "a": (1, arrow), "b": (1, arrow)})
    # a 6-cycle and two 3-cycles: only the search tells them apart
    loops = [(cx, cx.whole()) for cx in (parallel, _cycles(6), _cycles(3, 3))]
    pairs = list(itertools.product(loops, repeat=2))
    # one side has a single order and the other has none: a flipped sign gives
    # an arrow with two inputs or two outputs, or a loop (as in the 2-globe)
    for cx in (interval_chain(3).complex, globe(2), u_cell(2, 1).complex):
        for flipped in _every_flip(cx):
            pairs += [((cx, cx.whole()), (flipped, flipped.whole())), ((flipped, flipped.whole()), (cx, cx.whole()))]
    # neither side has a single order: a chain with an arrow parallel to one of
    # its arrows, or beside a point
    chain = interval_chain(3).complex
    doubled = _with(chain, "doubled", {"twin": (1, chain.covers(chain.by_dim(1)[1]))})
    lone = _with(chain, "lone", {"pt": (0, [])})
    pairs += [((x, x.whole()), (y, y.whole())) for x in (doubled, lone) for y in (doubled, lone)]
    for cx in COMPLEXES + _four_cells(rng, 3):
        # ids renamed in a shuffled order, so the search meets the elements in another order
        shuffled = rng.sample(cx.elements(), len(cx))
        renamed = {x: f"n{i:02d}" for i, x in enumerate(shuffled)}
        relabelled = cx.relabel(renamed)
        mine = _iso_sets(cx)
        pairs += [((cx, m), (relabelled, frozenset(renamed[x] for x in m))) for m in mine]
        for other in (cx, cx.dual(), flip_one_sign(cx, rng)):
            pairs += [((cx, m), (other, n)) for m in mine for n in _iso_sets(other)]
    fingerprinted = []
    fingerprints = molecules._fingerprints
    monkeypatch.setattr(molecules, "_fingerprints", lambda *args: fingerprinted.append(args) or fingerprints(*args))
    seen = Counter()
    for u, v in pairs:
        before = len(fingerprinted)
        got = _iso_outcome(unique_iso, u, v)
        assert got == _iso_outcome(ref_unique_iso, u, v)
        if len(u[1]) == len(v[1]) > 1:
            way = "search" if len(fingerprinted) > before else "order"
            seen[way, "map" if isinstance(got, dict) else "none" if got is None else "not unique"] += 1
            seen[way, u[0].dim_of_subset(u[1])] += 1
    # both ways found maps and refused pairs; only the search can find two maps
    assert all(seen[way, outcome] for way in ("order", "search") for outcome in ("map", "none")), seen
    assert seen["search", "not unique"] and not seen["order", "not unique"], seen
    assert seen["order", 3] and seen["search", 3], seen


def ref_recognize(cx: Complex, members: frozenset[str], memo: dict | None = None):
    """Recognition by recursion on member sets, over the reference boundaries,
    closures and frame graphs."""
    if memo is None:
        memo = {}
    if members in memo:
        return memo[members]
    if not members:
        return None
    maximal = ref_maximal(cx, members)
    if len(maximal) == 1:
        res = memo[members] = Molecule(cx, members, Atom(next(iter(maximal))))
        return res
    n = cx.dim_of_subset(members)
    inconclusive = n >= 4
    for k in range(max(ref_frame_dimension(cx, members), 0), n):
        order = ref_lex_topo(ref_maxd_adjacency(cx, members, k))
        if order is None:
            continue
        highs = [x for x in order if x in maximal and cx.dim_of(x) > k]
        if len(highs) < 2:
            continue
        bplus = ref_boundary(cx, members, k, PLUS)
        bminus = ref_boundary(cx, members, k, MINUS)
        for i in range(1, len(highs)):
            for u1, u2 in ref_split_candidates(cx, members, highs, i, k, bminus, bplus):
                if not u1 or not u2 or u1 == members or u2 == members:
                    continue
                if not ref_is_split(cx, members, u1, u2, k):
                    continue
                left = ref_recognize(cx, u1, memo)
                if left is None or left is UNKNOWN:
                    inconclusive = inconclusive or left is UNKNOWN
                    continue
                right = ref_recognize(cx, u2, memo)
                if right is None or right is UNKNOWN:
                    inconclusive = inconclusive or right is UNKNOWN
                    continue
                res = memo[members] = Molecule(cx, members, Pasting(k, left.certificate, right.certificate))
                return res
    res = memo[members] = UNKNOWN if inconclusive else None
    return res


def ref_is_split(cx: Complex, members, left, right, k: int) -> bool:
    if left | right != members:
        return False
    shared = left & right
    return ref_boundary(cx, left, k, PLUS) == shared and ref_boundary(cx, right, k, MINUS) == shared


def ref_split_candidates(cx: Complex, members, highs, i, k, bminus, bplus):
    """The two candidate k-splits at cut i of ``highs``: from the cells after
    the cut with the output k-boundary, then from the cells before it with
    the input k-boundary."""
    suffix = ref_closure(cx, highs[i:]) | bplus
    yield ref_closure(cx, members - (suffix - ref_boundary(cx, suffix, k, MINUS))), suffix
    prefix = ref_closure(cx, highs[:i]) | bminus
    yield prefix, ref_closure(cx, members - (prefix - ref_boundary(cx, prefix, k, PLUS)))


def test_a_cut_allows_one_split_and_cut_builds_it(enumerated):
    # on every closed set the recognition test visits, at every level k with
    # an acyclic frame order and two or more high cells, and at every cut of
    # that order: the candidate from the cells after the cut and the one from
    # the cells before it are both splits or neither, and the same split when
    # both, and `_cut` gives that split or None
    extra = [gray_product(globe(2), globe(2)), _disjoint_globes(4)]
    seen = Counter()
    for cx, found, _ in [*enumerated, *((cx, *ref_enumerate(cx)) for cx in extra)]:
        ix = cx._index()
        for members in _closed_sets(cx, found):
            maximal = ref_maximal(cx, members)
            for k in range(cx.dim_of_subset(members)):
                order = ref_lex_topo(ref_maxd_adjacency(cx, members, k))
                highs = [x for x in order or () if x in maximal and cx.dim_of(x) > k]
                if len(highs) < 2:
                    continue
                bminus, bplus = (ref_boundary(cx, members, k, s) for s in SIGNS)
                for i in range(1, len(highs)):
                    pairs = ref_split_candidates(cx, members, highs, i, k, bminus, bplus)
                    splits = [p for p in pairs if ref_is_split(cx, members, *p, k)]
                    got = molecules._cut(ix, ix.mask(members), ix.mask(highs[i:]), k, ix.mask(bplus))
                    if splits:
                        assert len(splits) == 2 and splits[0] == splits[1], (cx.name, sorted(members), k, i)
                        assert got == tuple(ix.mask(h) for h in splits[0]), (cx.name, sorted(members), k, i)
                    else:
                        assert got is None, (cx.name, sorted(members), k, i)
                    seen[bool(splits), k] += 1
    # splits and cuts without one, at levels 0 to 3
    assert {split for split, _ in seen} == {True, False} and {k for _, k in seen} == {0, 1, 2, 3}, seen


def _closed_sets(cx: Complex, found: list[Molecule]) -> set[frozenset[str]]:
    """Every enumerated member set, atom closure and atom boundary, and the whole complex."""
    sets = {cx.whole(), *(u.members for u in found)}
    for x in cx.elements():
        cl = ref_closure(cx, [x])
        sets.add(cl)
        sets.update(ref_boundary(cx, cl, k, s) for k in range(cx.dim_of(x)) for s in SIGNS)
    return sets


def _found(res) -> object:
    return res if res is None or res is UNKNOWN else certificate_json(res)


def _disjoint_globes(n: int) -> Complex:
    """Two disjoint copies of the n-globe: not a molecule."""
    o = globe(n)
    table = {f"{tag}{x}": (o.dim_of(x), [(f"{tag}{t}", s) for t, s in o.covers(x)]) for tag in "ab" for x in o}
    return Complex(f"pair{n}", table)


def test_recognize_matches_the_recursive_reference(enumerated):
    # beside the corpus, two 4-dimensional complexes: a molecule, and a
    # non-molecule whose failed search is inconclusive above dimension 3
    extra = [gray_product(globe(2), globe(2)), _disjoint_globes(4)]
    outcomes = set()
    for cx, found, _ in [*enumerated, *((cx, *ref_enumerate(cx)) for cx in extra)]:
        for m in _closed_sets(cx, found):
            got = recognize(cx, m)
            assert _found(got) == _found(ref_recognize(cx, m)), (cx.name, sorted(m))
            if got is not None and got is not UNKNOWN:
                assert got.members == m and certificate_ok(got)
            outcomes.add("found" if got else repr(got))
    assert outcomes == {"found", "None", "UNKNOWN"}


def test_a_filled_memo_gives_the_results_of_a_fresh_index(enumerated):
    outcomes = set()
    for cx, found, _ in [*enumerated, (_disjoint_globes(4), *ref_enumerate(_disjoint_globes(4)))]:
        recognize(cx, cx.whole())
        for x in cx.elements():
            cl = cx.closure([x])
            for k in range(cx.dim_of(x)):
                for s in SIGNS:
                    recognize(cx, cx.boundary(cl, k, s))
        for m in _closed_sets(cx, found):
            got = _found(recognize(cx, m))
            assert got == _found(recognize(cx.relabel({}), m)), (cx.name, sorted(m))
            outcomes.add(got if got is None or got is UNKNOWN else "found")
    assert outcomes == {"found", None, UNKNOWN}


def _recognize_and_validate(cx: Complex, sets: list[frozenset[str]]) -> tuple:
    return [_found(recognize(cx, m)) for m in sets], validate_complex(cx)


def _in_four_threads(work) -> list:
    """The results of ``work()`` run in four threads at once."""
    results = []
    threads = [threading.Thread(target=lambda: results.append(work())) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-search
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_threads_sharing_a_complex_get_the_single_threaded_results():
    shared = gray_product(globe(2), globe(2))
    sets = sorted(_closed_sets(shared, ref_enumerate(shared)[0]), key=sorted)
    want = _recognize_and_validate(shared.relabel({}), sets)
    assert _in_four_threads(lambda: _recognize_and_validate(shared, sets)) == [want] * 4


class _FilledMeanwhile(dict):
    """A recognition memo that another thread fills with the true result
    just after each lookup of a mask misses."""

    def __init__(self, truth: dict):
        super().__init__()
        self.truth = truth

    def _missed(self, m: int) -> None:
        if m in self.truth:
            self[m] = self.truth[m]

    def __contains__(self, m) -> bool:
        found = super().__contains__(m)
        if not found:
            self._missed(m)
        return found

    def get(self, m, default=None):
        if not super().__contains__(m):
            self._missed(m)
            return default
        return super().get(m)


def test_a_memo_entry_stored_between_lookups_is_not_sent_into_a_new_search():
    cx = gray_product(globe(2), globe(2))
    sets = sorted(_closed_sets(cx, ref_enumerate(cx)[0]), key=sorted)
    fresh = cx.relabel({})  # the same ids, so the same masks
    want, _ = _recognize_and_validate(fresh, sets)
    cx._index().recognized = _FilledMeanwhile(fresh._index().recognized)
    assert [_found(recognize(cx, m)) for m in sets] == want


def _frob_exprs(F, cx: Complex) -> list[bytes]:
    """`serialize_expr` of frob's interpretations in ``cx`` along both 2-orders,
    of its first factor in two contexts, and of the normal forms of all four."""
    u = recognize(cx, F.molecule.members)
    v1, _ = frame_decomposition(u, 2, k_order(u, 2))
    exprs = [interpret(u, KOrder(2, order)) for order in ((F["phi"], F["psi"]), (F["psi"], F["phi"]))]
    exprs += [interpret_atom_in_context(v1, c) for c in ((F["x"], F["y"], F["phi"]), (F["x"], F["phi"], F["y"]))]
    exprs += [expr_normalize(e) for e in exprs]
    return [serialize_expr(e) for e in exprs]


def test_a_filled_precedence_memo_gives_the_results_of_a_fresh_index():
    F = frob()
    cx = F.molecule.complex
    _frob_exprs(F, cx)
    assert len(cx._index().precedence) > 1
    assert _frob_exprs(F, cx) == _frob_exprs(F, cx.relabel({}))


def test_threads_sharing_a_complex_get_the_single_threaded_expressions():
    F = frob()
    shared = F.molecule.complex
    want = _frob_exprs(F, shared.relabel({}))
    assert _in_four_threads(lambda: _frob_exprs(F, shared)) == [want] * 4


def ref_to_normal_swaps(rank: dict[str, int], order: tuple[str, ...]) -> list[tuple[int, tuple[str, str]]]:
    """The adjacent swaps sorting ``order`` by rank: before each swap every
    adjacent pair is rescanned, and of those out of place the one with the
    largest ranks is swapped."""
    cur = list(order)
    swaps = []
    while True:
        candidates = [p for p in range(len(cur) - 1) if rank[cur[p + 1]] < rank[cur[p]]]
        if not candidates:
            return swaps
        p = max(
            candidates,
            key=lambda q: (max(rank[cur[q]], rank[cur[q + 1]]), min(rank[cur[q]], rank[cur[q + 1]])),
        )
        swaps.append((p, (cur[p], cur[p + 1])))
        cur[p], cur[p + 1] = cur[p + 1], cur[p]


def ref_interchanger_path(cx: Complex, support: frozenset[str], frm: tuple[str, ...], to: tuple[str, ...]) -> tuple:
    """`interchanger_path` with the second sort's swaps replayed on the order,
    each forward step reading its pair off the replayed order."""
    _, rank, _ = _precedence(cx, support)
    down = ref_to_normal_swaps(rank, frm)
    back = ref_to_normal_swaps(rank, to)
    while down and back and down[-1] == back[-1]:
        down.pop()
        back.pop()
    steps = [Interchange(p, "inv", pair) for p, pair in down]
    cur = list(frm)
    for p, _ in down:
        cur[p], cur[p + 1] = cur[p + 1], cur[p]
    for p, _ in reversed(back):
        steps.append(Interchange(p, "fwd", (cur[p], cur[p + 1])))
        cur[p], cur[p + 1] = cur[p + 1], cur[p]
    assert tuple(cur) == to
    return tuple(steps)


def test_to_normal_swaps_matches_the_rescanning_reference():
    # the swaps see the ranks only through their order, so one rank per size
    # covers every (rank, order) pair up to the names of the cells
    for n in range(7):
        cells = [f"c{i}" for i in range(n)]
        rank = {x: i for i, x in enumerate(cells)}
        for order in itertools.permutations(cells):
            assert _to_normal_swaps(rank, order) == ref_to_normal_swaps(rank, order)


def _assert_same_path(cx: Complex, support: frozenset[str], frm: tuple[str, ...], to: tuple[str, ...]) -> None:
    path = interchanger_path(cx, support, frm, to)
    assert path == ref_interchanger_path(cx, support, frm, to)
    assert walk(GrayExpr3(cx, TwoCellNF(support, frm), path))[-1].order == to


def test_interchanger_path_matches_the_replaying_reference_on_rows_of_globes():
    rng = random.Random(0x1C)
    for n in (1, 2, 3, 4, 5, 6, 8, 16, 32):
        row = _paste_all([globe_molecule(2)] * n, 0)
        normal = _precedence(row.complex, row.members)[0]
        if n <= 4:
            # every pair of orders; the row's cells are independent, so every order is admissible
            pairs = itertools.product(itertools.permutations(normal), repeat=2)
        elif n <= 6:
            # every order, to and from the normal order
            pairs = [p for order in itertools.permutations(normal) for p in ((order, normal), (normal, order))]
        else:
            pairs = [(tuple(rng.sample(normal, n)), tuple(rng.sample(normal, n))) for _ in range(20)]
        for frm, to in pairs:
            _assert_same_path(row.complex, row.members, frm, to)


def test_interchanger_path_matches_the_replaying_reference_on_frob():
    F = frob()
    cx = F.molecule.complex
    halves = frame_decomposition(F.molecule, 2, k_order(F.molecule, 2))
    wholes = [F.molecule.members, *(v.members for v in halves), *(cx.closure([x]) for x in (F["phi"], F["psi"]))]
    supports = {bd for m in wholes for bd in cx._boundary_pair(m, 2)}
    pairs = 0
    for support in supports:
        normal, _, reach = _precedence(cx, support)
        admissible = [
            order
            for order in itertools.permutations(normal)
            if all(order.index(x) < order.index(y) for x in order for y in reach.get(x, ()) if y in order)
        ]
        for frm, to in itertools.product(admissible, repeat=2):
            _assert_same_path(cx, support, frm, to)
            pairs += 1
    assert pairs > len(supports)


def ref_spherical(cx: Complex, m: frozenset[str]) -> bool:
    inner: frozenset[str] = frozenset()
    for k in range(cx.dim_of_subset(m)):
        minus, plus = ref_boundary(cx, m, k, MINUS), ref_boundary(cx, m, k, PLUS)
        if minus & plus != inner:
            return False
        inner = minus | plus
    return True


def ref_validate(cx: Complex) -> ValidationReport:
    """`validate_complex` from the reference boundaries and recognition."""
    checks = []
    unknowns = 0
    for x in cx.elements():
        n = cx.dim_of(x)
        if n < 1:
            continue
        cl = ref_closure(cx, [x])
        found = {s: ref_recognize(cx, ref_boundary(cx, cl, n - 1, s)) for s in SIGNS}
        unknowns += sum(r is UNKNOWN for r in found.values())
        status = {s: "UNKNOWN" if r is UNKNOWN else "FAIL" if r is None else "PASS" for s, r in found.items()}
        glob = None
        if n >= 2:
            glob = all(
                ref_boundary(cx, ref_boundary(cx, cl, n - 1, b), n - 2, a) == ref_boundary(cx, cl, n - 2, a)
                for a in SIGNS
                for b in SIGNS
            )
        checks.append(ElementReport(x, n, ref_spherical(cx, cl), status[MINUS], status[PLUS], glob))
    return ValidationReport(cx.name, tuple(checks), all(c.ok for c in checks), unknowns)


def test_spherical_boundary_matches_the_per_level_reference(enumerated):
    seen = set()
    for cx, found, _ in enumerated:
        for m in _closed_sets(cx, found) | {frozenset()}:
            want = ref_spherical(cx, m)
            assert spherical_boundary(cx, m) == want, (cx.name, sorted(m))
            seen.add(want)
    assert seen == {True, False}


def _globe_with_two_output_faces(n: int) -> Complex:
    """The n-globe with the top's ``(n-1)-`` cover signed ``+``: the top has
    no input face, and its two faces make an output boundary that is no
    molecule, which recognition cannot tell from dimension 4."""
    o = globe(n)
    table = {x: (o.dim_of(x), o.covers(x)) for x in o.elements()}
    table[str(n)] = (n, [(f"{n-1}-", PLUS), (f"{n-1}+", PLUS)])
    return Complex(f"O{n}~{n-1}-", table)


def test_validate_complex_matches_the_reference_on_every_complex():
    seen = set()
    for cx in [*COMPLEXES, _globe_with_two_output_faces(5)]:
        fresh = cx.relabel({})  # a new index, with no report kept
        report = validate_complex(fresh)
        assert report == ref_validate(fresh), cx.name
        for c in report.checks:
            seen |= {("spherical", c.spherical), ("input", c.input_molecule), ("output", c.output_molecule)}
            seen.add(("globular", c.globular))
    # every kind of failure occurs, on each side, and an output boundary is UNKNOWN
    assert {("spherical", False), ("input", "FAIL"), ("output", "FAIL"), ("globular", False)} <= seen
    assert ("output", "UNKNOWN") in seen


def ref_wire_sequence(cx: Complex, wires: frozenset[str]) -> list[str]:
    """The wire order of the svg exporter as a walk along the path: from the one
    input vertex, follow each wire's single source to its target."""
    ones = [x for x in wires if cx.dim_of(x) == 1]
    if not ones:
        return []
    start = cx.boundary(wires, 0, MINUS)
    if len(start) != 1:
        raise ValueError("wire layer is not a single path")
    at = next(iter(start))
    by_source = {}
    for w in ones:
        src = [t for t, s in cx.covers(w) if s == MINUS]
        if len(src) != 1:
            raise ValueError("wire without a single source endpoint")
        if src[0] in by_source:
            raise ValueError("wire layer is not a single path")
        by_source[src[0]] = w
    out = []
    for _ in ones:
        w = by_source[at]
        out.append(w)
        at = next(t for t, s in cx.covers(w) if s == PLUS)
    return out


def _wires_outcome(f, cx: Complex, wires: frozenset[str]):
    """The wire order, or "rejected"; the walk fails on a wire with no target
    with the StopIteration of its target lookup."""
    try:
        return f(cx, wires)
    except (ValueError, StopIteration):
        return "rejected"


def _layer(*wires: tuple[str, list[tuple[str, str]]]) -> Complex:
    """A 1-dimensional complex over the vertices its wires cover."""
    table = {t: (0, []) for _, cov in wires for t, _ in cov}
    table.update((w, (1, cov)) for w, cov in wires)
    return Complex("layer", table)


NOT_PATHS = [
    _layer(("a", [("v", MINUS), ("w", PLUS)]), ("b", [("v", MINUS), ("w", PLUS)])),  # parallel
    _layer(("a", [("v", MINUS), ("w", PLUS)]), ("b", [("v", MINUS), ("w", MINUS)])),  # two sources
    _layer(("a", [("v", MINUS), ("w", PLUS)]), ("b", [("w", PLUS)])),  # b has no source
    _layer(("a", [("v", MINUS), ("w", PLUS)]), ("b", [("w", MINUS)])),  # b has no target
    _layer(("a", [("v", MINUS), ("w", PLUS)]), ("b", [("x", MINUS), ("y", PLUS)])),  # disjoint
    _layer(("a", [("v", MINUS), ("w", PLUS)]), ("b", [("w", MINUS), ("v", PLUS)])),  # a loop
    _layer(("a", [("v", MINUS), ("w", MINUS)])),
]


def test_wire_sequence_matches_the_path_walk():
    outcomes = set()
    for cx in COMPLEXES:
        cells = [cx.whole(), *(cx.closure([x]) for x in cx.elements() if cx.dim_of(x) >= 1)]
        for cl in cells:
            for s in SIGNS:
                wires = cx.boundary(cl, 1, s)
                got = _wires_outcome(_wire_sequence, cx, wires)
                assert got == _wires_outcome(ref_wire_sequence, cx, wires), (cx.name, sorted(wires))
                outcomes.add(got == "rejected")
    assert outcomes == {True, False}
    for cx in NOT_PATHS:
        assert _wires_outcome(ref_wire_sequence, cx, cx.whole()) == "rejected"
        with pytest.raises(ValueError, match="^wire layer is not a single path$"):
            _wire_sequence(cx, cx.whole())


def _random_graph(rng: random.Random) -> Complex:
    """A random 1-dimensional complex with shuffled ids.  Most arrows extend a
    walk over the points, so many of its closed subsets are paths; the others
    join any two points (parallel arrows, loops, disjoint pieces), have two
    sources or two targets, or have no source or no target."""
    points = rng.randint(1, 7)
    walk = [rng.randrange(points)]
    covers = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if points == 1 or kind < 0.1:
            covers.append([(rng.randrange(points), rng.choice(SIGNS))])
            continue
        a, b = rng.sample(range(points), 2)
        if kind < 0.75:
            fresh = [p for p in range(points) if p not in walk]
            b = rng.choice(fresh) if fresh and rng.random() < 0.8 else rng.choice([p for p in range(points) if p != walk[-1]])
            covers.append([(walk[-1], MINUS), (b, PLUS)])
            walk.append(b)
        elif kind < 0.85:
            covers.append([(a, MINUS), (b, PLUS)])
        else:
            s = rng.choice(SIGNS)
            covers.append([(a, s), (b, s)])
    names = [f"{r:02d}" for r in rng.sample(range(100), points + len(covers))]
    table = {names[p]: (0, []) for p in range(points)}
    for i, cov in enumerate(covers):
        table[names[points + i]] = (1, [(names[p], s) for p, s in cov])
    return Complex("graph", table)


def _shuffled_chain(rng: random.Random, n: int) -> Complex:
    """The n-chain with its ids renamed at random, so that id order is not path order."""
    cx = interval_chain(n).complex
    names = [f"{r:04d}" for r in rng.sample(range(10_000), len(cx))]
    return cx.relabel(dict(zip(cx.elements(), names)), name=f"chain{n}")


def test_recognising_a_path_gives_the_certificate_of_the_split_search(monkeypatch):
    rng = random.Random(0x9A7)
    cases = []
    for _ in range(400):
        cx = _random_graph(rng)
        ids = cx.elements()
        sets = {cx.whole(), *(cx.closure(rng.sample(ids, rng.randint(1, min(4, len(ids))))) for _ in range(4))}
        cases.append((cx, sorted(sets, key=sorted)))
    for n in [*range(2, 30), 120]:
        cx = _shuffled_chain(rng, n)
        arrows = ref_wire_sequence(cx, cx.whole())
        sets = {cx.whole()}
        for _ in range(6):
            i, j = sorted(rng.sample(range(n + 1), 2))
            sets.add(cx.closure(arrows[i:j]))  # a run of arrows: a shorter path
            sets.add(cx.closure(rng.sample(arrows, rng.randint(1, n))))  # usually pieces
        cases.append((cx, sorted(sets, key=sorted)))
    with monkeypatch.context() as patched:
        patched.setattr(_Index, "path", lambda self, m: None)
        patched.setattr(_Index, "two_ended", lambda self, m: False)
        searched = [[_found(recognize(cx.relabel({}), m)) for m in sets] for cx, sets in cases]
    walked = [[_found(recognize(cx, m)) for m in sets] for cx, sets in cases]
    assert walked == searched
    seen = Counter()
    for (cx, sets), results in zip(cases, walked):
        ix = cx._index()
        for m, got in zip(sets, results):
            mask = ix.mask(m)
            if len(cx.maximal(m)) > 1:
                kind = "path" if ix.path(mask) is not None else "refused" if ix.two_ended(mask) else "searched"
                seen[kind, got is not None] += 1
    # the path branch was taken, masks whose arrows all have both ends and
    # are no path were refused, and the others were searched: some of those
    # (an arrow with no source before an arrow, say) are still found
    assert seen["path", True] > 150 and seen["refused", False] > 150 and seen["searched", False] > 500, seen
    assert seen["searched", True] and not seen["path", False] and not seen["refused", True], seen


def test_recognising_a_chain_orders_no_frame_and_remembers_one_mask(monkeypatch):
    calls = []
    frame_order = _Index.frame_order
    monkeypatch.setattr(_Index, "frame_order", lambda self, *args: calls.append(args) or frame_order(self, *args))
    for n in (2, 3, 40, 300):
        cx = _shuffled_chain(random.Random(n), n)
        ix = cx._index()
        got = recognize(cx, cx.whole())
        assert got.members == cx.whole() and certificate_ok(got)
        assert not calls and len(ix.recognized) == 1
        # arrows pasted at level 0, nested to the right in path order
        cert, tops = got.certificate, []
        while isinstance(cert, Pasting):
            assert cert.k == 0 and isinstance(cert.left, Atom)
            tops.append(cert.left.top)
            cert = cert.right
        assert tops + [cert.top] == ref_wire_sequence(cx, cx.whole())


def ref_compos(u: Molecule, name: str | None = None) -> Molecule:
    """The composite cell by recognising both (n-1)-boundaries and capping them
    with `cell_to`, which matches their (n-2)-boundaries by isomorphism."""
    if not spherical(u):
        raise PastingError(f"{u.complex.name}: composite cell needs a spherical boundary")
    n = u.dim
    if n == 0:
        return u
    lo = recognize(u.complex, u.boundary(n - 1, MINUS))
    hi = recognize(u.complex, u.boundary(n - 1, PLUS))
    if lo is None or lo is UNKNOWN or hi is None or hi is UNKNOWN:
        raise PastingError(f"{u.complex.name}: boundary of composite not recognised as a molecule")
    return cell_to(lo, hi, name=name)


def _spherical_molecules() -> list[Molecule]:
    """Random spherical molecules of dimension 1 to 3 with their boundaries,
    every generating cell shape of MonComplex and coMonComplex, and Gray
    products of globes up to dimension 6."""
    rng = random.Random(0xC0)
    out = []
    for _ in range(40):
        u = random_molecule(rng, max_elements=30)
        for k in range(u.dim):
            out += [recognize(u.complex, u.boundary(k, s)) for s in SIGNS]
        out.append(u)
    out = [u for u in out if 1 <= u.dim <= 3 and spherical(u)]
    cells = [c.cell.shape for name in ("MonComplex", "coMonComplex") for c in builtin(name).cells]
    cells += [gray_product(globe(a), globe(b)) for a, b in ((2, 2), (1, 4), (3, 3))]
    return out + [whole(cx) for cx in cells]


def test_compos_matches_cell_to_over_the_recognised_boundaries():
    dims = set()
    for u in _spherical_molecules():
        got, want = compos(u, "c"), ref_compos(u, "c")
        assert serialize_complex(got.complex) == serialize_complex(want.complex)
        assert (got.members, got.certificate) == (want.members, want.certificate)
        assert (got.left_map, got.right_map) == (want.left_map, want.right_map)
        assert compos(u).complex.name == ref_compos(u).complex.name
        dims.add(u.dim)
    assert dims == {0, 1, 2, 3, 4, 5, 6}


def test_a_pasting_has_the_boundaries_of_its_halves(enumerated):
    """On every enumerated pasting U #k V in a regular complex: the j-boundaries
    are those of U below k, the input of U and the output of V at k, and the
    union of both above k.  Flipped copies that fail validation are left out,
    as the rule is a theorem about regular complexes and fails on some of them.
    Beside the corpus, the molecules of 40 larger random molecules and of Gray
    products of globes up to dimension 6."""
    rng = random.Random(0xB0)
    extra = [random_molecule(rng, max_elements=40).complex for _ in range(40)]
    extra += [gray_product(globe(a), globe(b)) for a, b in ((2, 2), (2, 3), (1, 4), (3, 3))]
    seen = Counter()
    for cx, found in [*((cx, found) for cx, found, _ in enumerated), *((cx, enumerate_molecules(cx)[0]) for cx in extra)]:
        if not validate_complex(cx).passed:
            continue
        ix = cx._index()

        def members(cert: Atom | Pasting) -> int:
            return _fold(cert, lambda a: ix.down[ix.pos[a.top]], lambda p, left, right: left | right)

        for u in found:
            p = u.certificate
            if isinstance(p, Atom):
                continue
            m, k = ix.mask(u.members), p.k
            top = ix.dim(m)
            left, right = ix.boundaries(members(p.left), top), ix.boundaries(members(p.right), top)
            want = [
                left[j] if j < k else (left[k][0], right[k][1]) if j == k else (left[j][0] | right[j][0], left[j][1] | right[j][1])
                for j in range(top)
            ]
            assert ix.boundaries(m, top) == want, (cx.name, sorted(u.members))
            seen[k < top - 1] += 1
    # pastings along the top boundary, and below it, where the union rule applies
    assert seen[True] > 1000 and seen[False] > 1000, seen


def test_frame_loops_agrees_with_frame_order(enumerated):
    outcomes = set()
    for cx, found, _ in enumerated:
        ix = cx._index()
        for u in found:
            m = ix.mask(u.members)
            maximal = ix.maximal(m)
            if not maximal & (maximal - 1):
                continue
            loops = ix.frame_order(m, maximal, max(ix.frame_dimension(maximal), 0)) is None
            assert _frame_loops(ix, m) == loops
            outcomes.add(loops)
    assert outcomes == {True, False}


def ref_paste(u1: Molecule, u2: Molecule, k: int, name: str | None = None) -> Molecule:
    """Two molecules glued along the isomorphism of their output and input
    k-boundaries, as one `_glue` table: ``left/x`` and ``right/y`` ids."""
    if k < 0:
        raise PastingError("pasting dimension must be >= 0")
    b1 = u1.boundary(k, PLUS)
    b2 = u2.boundary(k, MINUS)
    iso = unique_iso((u1.complex, b1), (u2.complex, b2))
    if iso is None:
        raise PastingError(
            f"cannot paste {u1.complex.name} and {u2.complex.name} at {k}: "
            f"boundaries not isomorphic ({_mismatch(u1.complex, b1, u2.complex, b2)})"
        )
    table, (left_map, right_map) = _glue(
        [(u1.complex, u1.members, {}), (u2.complex, u2.members, {y: x for x, y in iso.items()})]
    )
    cx = Complex(name or f"({u1.complex.name}#{k}{u2.complex.name})", table)
    cert = Pasting(k, _rename(u1.certificate, left_map), _rename(u2.certificate, right_map))
    return Molecule(cx, cx.whole(), cert, left_map, right_map)


def ref_paste_fold(us: list[Molecule], k: int) -> Molecule:
    """``ref_paste(...ref_paste(us[0], us[1], k)..., us[-1], k)``: one new complex per factor."""
    u = us[0]
    for v in us[1:]:
        u = ref_paste(u, v, k)
    return u


def _assert_same_pasting(got: Molecule, want: Molecule) -> None:
    assert serialize_complex(got.complex) == serialize_complex(want.complex)
    assert got.complex.name == want.complex.name
    assert [got.complex.covers(x) for x in got.complex] == [want.complex.covers(x) for x in want.complex]
    assert got.members == want.members
    assert got.certificate == want.certificate
    assert certificate_json(got) == certificate_json(want)
    assert (got.left_map, got.right_map) == (want.left_map, want.right_map)


def _factor_rows(rng: random.Random) -> list[list[Molecule]]:
    """Rows to paste at k=0: u-cells, random molecules, and molecules that are
    a proper subset of their complex (the input boundary of a 2-molecule)."""
    rows = []
    for _ in range(30):
        rows.append([u_cell(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(2, 5))])
        row = []
        for _ in range(rng.randint(2, 4)):
            u = random_molecule(rng, max_elements=20)
            if u.dim >= 2 and rng.random() < 0.5:
                u = recognize(u.complex, u.boundary(1, MINUS))
            row.append(u)
        rows.append(row)
    return rows


def _assert_pastes_like_the_reference(us: list[Molecule], k: int) -> None:
    """`_paste_all` and the fold of `paste` against the fold of `ref_paste`,
    and `paste` of each neighbouring pair, named and unnamed, against `ref_paste`."""
    want = ref_paste_fold(us, k)
    _assert_same_pasting(_paste_all(us, k), want)
    folded = us[0]
    for v in us[1:]:
        folded = paste(folded, v, k)
    _assert_same_pasting(folded, want)
    for a, b in zip(us, us[1:]):
        _assert_same_pasting(paste(a, b, k), ref_paste(a, b, k))
        _assert_same_pasting(paste(a, b, k, name="glued"), ref_paste(a, b, k, name="glued"))


def test_paste_all_matches_the_fold():
    for n in [*range(1, 60), 100, 200]:
        _assert_same_pasting(interval_chain(n), ref_paste_fold([globe_molecule(1) for _ in range(n)], 0))
    rng = random.Random(13)
    for _ in range(60):
        wires = [rng.randint(1, 3) for _ in range(rng.randint(2, 7))]
        _assert_pastes_like_the_reference([u_cell(a, b) for a, b in zip(wires, wires[1:])], 1)
    # some factors of these rows are a proper submolecule of their complex
    for row in _factor_rows(rng):
        _assert_pastes_like_the_reference(row, 0)


@pytest.mark.parametrize("factors, k", [
    ([(2, 1), (3, 1)], 1),
    ([(1, 2), (2, 2), (2, 1), (3, 1)], 1),
    ([(1, 1), (1, 1)], -1),
    ([(1, 2), (1, 1)], 1),
    ([(2, 1), (1, 2)], -2),
])
def test_paste_all_fails_where_the_fold_fails(factors, k):
    us = [u_cell(a, b) for a, b in factors]
    with pytest.raises(PastingError) as want:
        ref_paste_fold(us, k)
    with pytest.raises(PastingError) as got:
        _paste_all(us, k)
    assert str(got.value) == str(want.value)
    # `paste` of the first two factors fails as `ref_paste` does, or agrees with it
    try:
        want_two = ref_paste(us[0], us[1], k)
    except PastingError as exc:
        with pytest.raises(PastingError) as got:
            paste(us[0], us[1], k, name="glued")
        assert str(got.value) == str(exc)
    else:
        _assert_same_pasting(paste(us[0], us[1], k), want_two)


def ref_dump(doc) -> bytes:
    return (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def ref_sigma_star_expr(s: Permutation, w: tuple[str, ...]) -> Layered2Cell:
    """The inverse crossings of the positive word for ``s⁻¹``, applied from
    ``w`` in reverse order: each slice crosses the two sorts at its position
    in the word reached so far."""
    forward = sigma_expr(s.inverse(), tuple(w[s(j) - 1] for j in range(1, s.n + 1)))
    word = tuple(w)
    slices = []
    for sl in reversed(forward.slices):
        k = len(sl.pre)
        a, b = word[k], word[k + 1]
        slices.append(Slice(word[:k], BraidInv(a, b), word[k + 2 :]))
        word = word[:k] + (b, a) + word[k + 2 :]
    return Layered2Cell(tuple(w), tuple(slices))


def test_sigma_star_expr_matches_the_position_walk():
    for n in range(7):
        w = tuple("abcdef"[:n])
        for images in itertools.permutations(range(1, n + 1)):
            s = Permutation(images)
            assert sigma_star_expr(s, w) == ref_sigma_star_expr(s, w)


def test_block_sigma_inverse_word_is_the_inverse_permutation_on_the_column_major_word():
    for n, m in itertools.product(range(1, 5), repeat=2):
        sorts = [[f"s{i}{j}" for j in range(m)] for i in range(n)]
        column_major = tuple(sorts[i][j] for j in range(m) for i in range(n))
        # the position map sending an entry's row-major slot to its column-major slot
        s = Permutation(tuple(j * n + i + 1 for i in range(n) for j in range(m)))
        assert block_sigma(n, m, sorts)[1] == sigma_star_expr(s.inverse(), column_major)


def test_dump_matches_json_on_every_golden_document(monkeypatch):
    written = []

    def recording_dump(doc):
        written.append(doc)
        return _dump(doc)

    monkeypatch.setattr(serialize, "_dump", recording_dump)
    for name in dir(test_golden):
        if name.startswith("test_"):
            getattr(test_golden, name)()
    assert len(written) > 70
    for doc in written:
        assert _dump(doc) == ref_dump(doc)


def test_dump_matches_json_on_the_fixture_files():
    files = fixture_files()
    assert len(files) == 22
    for blob in files.values():
        assert _dump(json.loads(blob)) == ref_dump(json.loads(blob)) == blob


_json_text = st.text() | st.sampled_from(["", "\x00", '"', "\\", "é", "\u2028", "\U0001f600", "a\nb\tc"])
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**18, max_value=10**60)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
    | _json_text
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_json_text, children, max_size=4),
    max_leaves=25,
)


@given(_json_values)
@example("a\nb")  # a bare string, which no container holds
@example({"empty": {}})
@settings(max_examples=300, deadline=None)
def test_dump_matches_json_on_random_values(value):
    assert _dump(value) == ref_dump(value)


def test_a_comment_nested_900_deep_reserializes():
    depth = 900
    # `depth` nested lists, the innermost empty, written at indent level 1
    comment = "\n".join(
        ["["]
        + ["  " * level + "[" for level in range(2, depth)]
        + ["  " * depth + "[]"]
        + ["  " * level + "]" for level in range(depth - 1, 0, -1)]
    )
    o1 = fixture_files()["o1.json"].decode()
    data = o1.replace('"name": "O1",\n', f'"name": "O1",\n  "comment": {comment},\n', 1)
    assert data != o1
    cx, extra = parse_complex(data)
    assert serialize_complex(cx, extra) == data.encode()


def test_dump_follows_json_on_values_json_loads_never_returns():
    # tuples are lists and non-string keys become strings, as in json
    for value in ((1, ("a",)), {1: "a", 2.5: [], False: None, None: -0.0, float("inf"): 1}):
        assert _dump(value) == ref_dump(value)
    for bad in ({1, 2}, {"a": [object()]}, {(1,): 2}):
        with pytest.raises(TypeError) as want:
            ref_dump(bad)
        with pytest.raises(TypeError) as got:
            _dump(bad)
        assert str(got.value) == str(want.value)
