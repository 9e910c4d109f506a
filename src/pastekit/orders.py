"""Order combinatorics on molecules: frame graphs, k-orders, decompositions.

The bipartite frame graph at level n relates maximal cells above n to the
n-dimensional elements they feed through; its acyclicity at the frame
dimension is what lets a molecule be taken apart layer by layer.

Graphs keyed by vertex are ordered by one Kahn loop, the lexicographic sort
`ogp._lex_topo`.  k-orders come from it through `_Index.frame_order`.  The
totality test `ogp._unique_topo` is that sort plus an edge between each pair
of consecutive vertices; it gives the Hasse-graph order of
`totally_loop_free` and the precedence order of `normal_order_of_subset`, and
`molecules.unique_iso` also reads it.  `_find_cycle` reads a cycle off the
vertices the sort leaves.  `_frame_loops` tests a frame graph for a cycle on
masks, without ordering it.

Reachability on id-keyed graphs has one walk, `_reached`: it maps each
vertex reached from a set of sources to the vertex it was reached from.
Frame-graph and Hasse-graph reach sets, the cells above a slice's cut, and
the blocking frame paths of `check_sim_substitution` are all read off it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .ogp import Complex, _Index, _lex_topo, _unique_topo
from . import molecules as mol


def _find_cycle(adj: dict[str, tuple[str, ...]]) -> tuple[str, ...] | None:
    """A directed cycle of an adjacency map, first vertex repeated last, or
    None when it has none.

    Read off the vertices `ogp._lex_topo` cannot take: each of them has a
    predecessor it cannot take either, so walking back along such
    predecessors from any of them repeats a vertex, and the walk from that
    vertex back to itself, reversed, is a cycle.
    """
    taken = set(_lex_topo(adj))
    left = [v for v in adj if v not in taken]
    if not left:
        return None
    pred = {w: v for v in left for w in adj[v] if w not in taken}
    seen = set()
    v = left[0]
    while v not in seen:
        seen.add(v)
        v = pred[v]
    cycle = [v, pred[v]]
    while cycle[-1] != v:
        cycle.append(pred[cycle[-1]])
    return tuple(reversed(cycle))


def _reached(adj: Mapping[str, Sequence[str]], sources: Iterable[str]) -> dict[str, str]:
    """Every vertex reachable from ``sources`` along one or more edges, mapped
    to the vertex it was first reached from, in the order a depth-first
    search on a stack finds them; a source is included only when it lies on
    a cycle."""
    prev: dict[str, str] = {}
    stack = list(sources)
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in prev:
                prev[w] = v
                stack.append(w)
    return prev


@dataclass(frozen=True)
class MaxdGraph:
    """Bipartite directed graph between low elements and high maximal cells."""

    n: int
    low: tuple[str, ...]
    high: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]]

    def find_cycle(self) -> tuple[str, ...] | None:
        return _find_cycle(self.adjacency)

    @property
    def acyclic(self) -> bool:
        return self.find_cycle() is None

    def reachable(self, src: str) -> frozenset[str]:
        """The vertices reachable from ``src``; ``src`` itself only when it lies on a cycle."""
        return frozenset(_reached(self.adjacency, (src,)))


@dataclass(frozen=True)
class KOrder:
    k: int
    sequence: tuple[str, ...]


def maxd(cx: Complex, members: frozenset[str], n: int) -> MaxdGraph:
    """The level-n frame graph of a closed subset.

    Vertices: elements of dimension <= n, plus maximal elements of higher
    dimension.  A low vertex points at a high cell it enters through the
    input n-boundary (off the (n-1)-boundary), and a high cell points at the
    low elements of its output n-boundary likewise.
    """
    ix = cx._index()
    return _frame_graph(ix, ix.mask(members), n)


def _frame_graph(ix: _Index, m: int, n: int) -> MaxdGraph:
    """`maxd` of a mask."""
    ids = ix.ids
    sides = ix.frame_sides(m, ix.maximal(m), n)
    low = tuple(sorted(ix.members(m & ix.below(n + 1))))
    high = tuple(sorted(ids[i] for i, _, _ in sides))
    adj: dict[str, list[str]] = {v: [] for v in low + high}
    for i, into, out in sides:
        for y in ix.members(into):
            adj[y].append(ids[i])
        adj[ids[i]].extend(ix.members(out))
    return MaxdGraph(n, low, high, {v: tuple(sorted(ws)) for v, ws in adj.items()})


def frame_dimension(cx: Complex, members: frozenset[str]) -> int:
    """Largest dimension along which two distinct maximal cells overlap."""
    if not members:
        raise ValueError("frame dimension of the empty subset is undefined")
    ix = cx._index()
    return ix.frame_dimension(ix.maximal(ix.mask(members)))


@dataclass(frozen=True)
class FrameAcyclicityReport:
    ok: bool
    checked: int
    truncated: bool
    witness: frozenset[str] | None = None
    cycle: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def frame_acyclic(
    cx: Complex,
    molecule_list: Sequence[mol.Molecule] | None = None,
    budget: int = 10_000,
) -> FrameAcyclicityReport:
    """Whether every molecule's frame graph at its own frame dimension is acyclic.

    Without an explicit list this enumerates molecules up to ``budget``
    (desk scale only) and reports coverage.  A failing report names the
    first looping molecule in list order (`enumerate_molecules`' order when
    enumerated) and a cycle of its frame graph.
    """
    ix = cx._index()
    truncated = False
    if molecule_list is None:
        pool, truncated = mol._enumerate_masks(cx, budget)
        if not any(_frame_loops(ix, m) for m in pool):
            return FrameAcyclicityReport(True, len(pool), truncated)
        listed = sorted((ix.members(m) for m in pool), key=mol._listing_key)
    else:
        listed = [u.members for u in molecule_list]
    for checked, members in enumerate(listed, 1):
        if _frame_loops(ix, ix.mask(members)):
            cycle = maxd(cx, members, max(frame_dimension(cx, members), 0)).find_cycle()
            return FrameAcyclicityReport(False, checked, truncated, members, cycle)
    return FrameAcyclicityReport(True, len(listed), truncated)


def _frame_loops(ix: _Index, m: int) -> bool:
    """Whether the frame graph of a closed mask at its frame dimension has a cycle.

    The frame graph alternates low elements and high maximal cells, so it
    has a cycle exactly when the relation "the output of x meets the input
    of x'" on high cells does.

    This gives the same answer as ``_Index.frame_order(...) is None`` and is
    kept beside it for speed: it needs no order, so it takes whole rounds of
    ready cells as masks instead of one vertex at a time from a heap.  Over
    the 155,585 molecules that `frame_acyclic` checks on the bench's
    600-entry frame_small corpus it took 1.5-1.7 s against 3.1-3.9 s for
    `frame_order`, and a copy calling `frame_order` here spent 28% more CPU
    time on that workload's ops (shared 2-vCPU machine).
    """
    maximal = ix.maximal(m)
    if not maximal & (maximal - 1):  # fewer than two maximal cells
        return False
    # at the frame dimension, or at 0, the least level of a frame graph
    sides = ix.frame_sides(m, maximal, max(ix.frame_dimension(maximal), 0))
    # Kahn's algorithm in rounds: a cell is ready once no remaining cell's
    # output meets its input; a round with no ready cell means a cycle
    while sides:
        outputs = 0
        for _, _, out in sides:
            outputs |= out
        blocked = [p for p in sides if p[1] & outputs]
        if len(blocked) == len(sides):
            return True
        sides = blocked
    return False


def k_order(u: mol.Molecule, k: int) -> KOrder | None:
    """A deterministic k-order on a molecule, or None if the frame graph loops.

    Ties are broken towards the lexicographically least ready vertex, so
    reruns and decompositions are reproducible.  ``k`` must lie in
    ``0 <= k < u.dim``.
    """
    if not 0 <= k < u.dim:
        raise ValueError("k must be at least 0 and below the molecule dimension")
    ix = u.complex._index()
    m = ix.mask(u.members)
    order = ix.frame_order(m, ix.maximal(m), k)
    if order is None:
        return None
    return KOrder(k, tuple(ix.ids[i] for i in order))


def is_k_order(u: mol.Molecule, k: int, sequence: Sequence[str]) -> bool:
    """Whether ``sequence`` lists the level-k high cells, no output meeting an
    earlier input.  There are no k-orders below level 0."""
    if k < 0:
        return False
    ix = u.complex._index()
    m = ix.mask(u.members)
    sides = {ix.ids[i]: (into, out) for i, into, out in ix.frame_sides(m, ix.maximal(m), k)}
    if sorted(sequence) != sorted(sides):
        return False
    entered = 0  # the inputs of the cells listed so far
    for x in sequence:
        into, out = sides[x]
        if out & entered:
            return False
        entered |= into
    return True


def frame_decomposition(u: mol.Molecule, k: int, order: KOrder) -> list[mol.Molecule]:
    """Split a molecule into factors along a k-order, one maximal cell each.

    Pasting the factors back at level k reproduces the element set exactly;
    a failed split verification is reported with the offending index.
    """
    cx = u.complex
    if k < frame_dimension(cx, u.members):
        raise ValueError("k must be at least the frame dimension")
    if order.k != k or not is_k_order(u, k, order.sequence):
        raise ValueError("not a k-order for this molecule")
    factors: list[mol.Molecule] = []
    ix = cx._index()
    current = ix.mask(u.members)
    for i in range(len(order.sequence) - 1):
        halves = mol._cut(ix, current, ix.mask(order.sequence[i + 1 :]), k, ix.boundary(current, k)[1])
        if halves is None:
            raise RuntimeError(f"frame decomposition split failed at index {i}")
        first, current = halves
        got = mol.recognize(cx, ix.members(first))
        if got is None or got is mol.UNKNOWN:
            raise RuntimeError(f"frame decomposition factor at index {i} is not a molecule")
        factors.append(got)
    got = mol.recognize(cx, ix.members(current))
    if got is None or got is mol.UNKNOWN:
        raise RuntimeError("frame decomposition tail is not a molecule")
    factors.append(got)
    return factors


# -- total orders in low dimension ---------------------------------------------


@dataclass(frozen=True)
class LoopFreeReport:
    """Acyclicity and totality of a subset's oriented Hasse graph ``adjacency``.

    ``reach`` is derived from the graph on first use; None when it loops.
    """

    acyclic: bool
    total: bool
    order: tuple[str, ...] | None
    adjacency: dict[str, tuple[str, ...]]
    cycle: tuple[str, ...] | None = None

    @cached_property
    def reach(self) -> dict[str, frozenset[str]] | None:
        if not self.acyclic:
            return None
        return {v: frozenset(_reached(self.adjacency, (v,))) for v in self.adjacency}

    def preceq(self, x: str, y: str) -> bool:
        if not self.acyclic:
            raise ValueError("precedence undefined on a looping subset")
        return x == y or y in self.reach[x]


def totally_loop_free(cx: Complex, members: frozenset[str] | None = None) -> LoopFreeReport:
    """Analyse the oriented Hasse graph: acyclicity, reachability, totality.

    The reachability preorder is available whenever the graph is acyclic; a
    total order is additionally returned exactly when reachability compares
    every pair, in which case it is the unique topological order.  Totality
    is `ogp._unique_topo`, the test `unique_iso` also matches by; a graph
    without that order is searched for a cycle (`_find_cycle`).
    """
    if members is None:
        members = cx.whole()
    adj = cx.oriented_hasse(members)
    order = _unique_topo(adj)
    if order is not None:
        return LoopFreeReport(True, True, tuple(order), adj)
    cycle = _find_cycle(adj)
    return LoopFreeReport(cycle is None, False, None, adj, cycle)


def normal_1_order(u: mol.Molecule) -> KOrder:
    """The canonical 1-order of a 2-molecule: its cells in precedence order."""
    if u.dim != 2:
        raise ValueError("normal 1-orders exist on 2-dimensional molecules only")
    return KOrder(1, normal_order_of_subset(u.complex, u.members))


def normal_order_of_subset(cx: Complex, members: frozenset[str]) -> tuple[str, ...]:
    """Top cells of a 2-dimensional closed subset in the unique topological
    order of its oriented Hasse graph (`ogp._unique_topo`), their precedence."""
    order = _unique_topo(cx._hasse(members))
    if order is None:
        raise RuntimeError("precedence is not total on this subset")
    return tuple(x for x in order if cx.dim_of(x) == 2)


def slice_decomposition(u: mol.Molecule, i: mol.Molecule) -> tuple[mol.Molecule, mol.Molecule]:
    """Cut a molecule of dimension <= 2 along a spanning 1-molecule.

    Returns the unique pair (below, above) with the cut as the shared
    1-boundary; re-pasting them reproduces the molecule.  The halves are the
    split `molecules._cut` makes, checked to meet in the cut and recognised.
    """
    cx = u.complex
    if u.dim > 2:
        raise ValueError("slice decomposition applies up to dimension 2")
    if i.complex is not cx or not i.members <= u.members:
        raise ValueError("the cut must be a subset of the molecule")
    ix = cx._index()
    m = ix.mask(u.members)
    if ix.boundary(ix.mask(i.members), 0) != ix.boundary(m, 0):
        raise ValueError("the cut does not span the molecule's endpoints")
    if u.dim <= 1:
        if i.members != u.members:
            raise ValueError("a 1-molecule is only cut along itself")
        return u, u
    # a cell is above the cut iff a level-1 frame path leads to it from a cut
    # wire (a Hasse path may pass a wire's end point into a cell below it)
    cut_wires = [w for w in i.members if cx.dim_of(w) == 1]
    above_cells = [x for x in _reached(_frame_graph(ix, m, 1).adjacency, cut_wires) if cx.dim_of(x) == 2]
    halves = mol._cut(ix, m, ix.mask(above_cells), 1, ix.boundary(m, 1)[1])
    if halves is None or halves[0] & halves[1] != ix.mask(i.members):
        raise ValueError("the cut does not slice the molecule")
    lo, hi = (mol.recognize(cx, ix.members(h)) for h in halves)
    if lo is None or lo is mol.UNKNOWN or hi is None or hi is mol.UNKNOWN:
        raise RuntimeError("slice halves failed molecule recognition")
    return lo, hi


# -- simultaneous substitution ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimSubstitutionReport:
    ok: bool
    blocked_path: tuple[str, ...] | None = None
    detail: str = ""
    collapsed: mol.Molecule | None = None  # the once-substituted molecule a failure was seen in
    surviving_image: frozenset[str] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _blocking_path(cx: Complex, members: frozenset[str], part: frozenset[str], n: int) -> tuple[str, ...] | None:
    """A frame path at level n-1 between two top cells of ``part`` that leaves it."""
    g = maxd(cx, members, n - 1)
    part_tops = [x for x in g.high if x in part]
    outside = frozenset(g.adjacency) - part
    for src in part_tops:
        prev = _reached(g.adjacency, (src,))
        for w in prev:
            if w in part_tops and w != src:
                path = [w]
                while path[-1] != src:
                    path.append(prev[path[-1]])
                if any(p in outside for p in path):
                    return tuple(reversed(path))
    return None


def check_sim_substitution(
    u: mol.Molecule, v_members: frozenset[str], w_members: frozenset[str]
) -> SimSubstitutionReport:
    """Can two boundary-overlapping submolecules be collapsed one after the other?

    True comes with constructed witnesses (both collapse orders succeed).  In
    dimension 2 a failure is an internal error; in dimension 3 it is a real
    counterexample and the report carries a blocking frame path between the
    surviving part's cells, phrased in the once-substituted complex.
    """
    cx = u.complex
    n = u.dim
    if n not in (2, 3):
        raise ValueError("simultaneous substitution is checked in dimensions 2 and 3")
    sites = []
    for part, label in ((v_members, "first"), (w_members, "second")):
        if not part <= u.members or not cx.is_closed(part):
            raise ValueError(f"{label} site is not a closed subset of the molecule")
        got = mol.recognize(cx, part)
        if got is None or got is mol.UNKNOWN:
            raise ValueError(f"{label} site is not a molecule")
        if not mol.spherical(got):
            raise ValueError(f"{label} site does not have a spherical boundary")
        sites.append(got)
    if v_members == w_members:
        # collapsing the site leaves its own composite, a submolecule by
        # construction, so an identical pair is trivially compatible
        return SimSubstitutionReport(True)
    vb = cx.boundary(v_members, None) | cx.boundary(w_members, None)
    if not (v_members & w_members) <= vb:
        raise ValueError("sites overlap beyond their boundaries")

    # collapse each site first in turn; the other survives as its image
    for first, second in ((sites[0], w_members), (sites[1], v_members)):
        collapsed = mol.substitute(u, first.members, mol.compos(first))
        assert collapsed.left_map is not None
        image = frozenset(collapsed.left_map[x] for x in second)
        try:
            sh = mol.recognize(collapsed.complex, image)
            if sh is None or sh is mol.UNKNOWN:
                raise mol.SubstitutionError("surviving site is no longer a molecule")
            mol.substitute(collapsed, image, mol.compos(sh))
        except mol.SubstitutionError as exc:
            if n == 2:
                raise RuntimeError("dimension-2 simultaneous substitution must not fail") from exc
            path = _blocking_path(collapsed.complex, collapsed.members, image, n)
            return SimSubstitutionReport(False, path, str(exc), collapsed, image)
    return SimSubstitutionReport(True)
