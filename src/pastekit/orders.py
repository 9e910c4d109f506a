"""Order combinatorics on molecules: frame graphs, k-orders, decompositions.

The bipartite frame graph at level n relates maximal cells above n to the
n-dimensional elements they feed through; its acyclicity at the frame
dimension is what lets a molecule be taken apart layer by layer.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .ogp import Complex, MINUS, PLUS
from . import molecules as mol


def _lex_topo(adj: dict[str, tuple[str, ...]]) -> list[str] | None:
    """Topological order with lexicographically-least ready vertex, or None."""
    indeg = {v: 0 for v in adj}
    for v, ws in adj.items():
        for w in ws:
            indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return out if len(out) == len(adj) else None


def _find_cycle(adj: dict[str, tuple[str, ...]]) -> tuple[str, ...] | None:
    """A directed cycle of an adjacency map, first vertex repeated last, or None."""
    color: dict[str, int] = {}
    parent: dict[str, str] = {}
    for root in adj:
        if color.get(root):
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color.get(w, 0) == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [w, v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cycle.append(x)
                    cycle.reverse()
                    return tuple(cycle)
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def _reachable(adj: dict[str, tuple[str, ...]], src: str) -> frozenset[str]:
    """Vertices reachable from ``src``; ``src`` itself only when it has a loop."""
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen - {src}) | (frozenset({src}) if src in adj.get(src, ()) else frozenset())


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
        return _reachable(self.adjacency, src)


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
    maximal = cx.maximal(members)
    low = tuple(x for x in sorted(members) if cx.dim_of(x) <= n)
    high = tuple(x for x in sorted(maximal) if cx.dim_of(x) > n)
    adj: dict[str, list[str]] = {v: [] for v in low + high}
    low_set = frozenset(low)
    for x in high:
        cl = cx.closure([x])
        rim = cx.boundary(cl, n - 1)
        for y in cx.boundary(cl, n, MINUS) - rim:
            if y in low_set:
                adj[y].append(x)
        for y in cx.boundary(cl, n, PLUS) - rim:
            if y in low_set:
                adj[x].append(y)
    return MaxdGraph(n, low, high, {v: tuple(sorted(set(ws))) for v, ws in adj.items()})


def frame_dimension(cx: Complex, members: frozenset[str]) -> int:
    """Largest dimension along which two distinct maximal cells overlap."""
    if not members:
        raise ValueError("frame dimension of the empty subset is undefined")
    maximal = sorted(cx.maximal(members))
    closures = {x: cx.closure([x]) for x in maximal}
    best = -1
    for i, x in enumerate(maximal):
        for y in maximal[i + 1 :]:
            best = max(best, cx.dim_of_subset(closures[x] & closures[y]))
    return best


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
    (desk scale only) and reports coverage.
    """
    truncated = False
    if molecule_list is None:
        molecule_list, truncated = mol.enumerate_molecules(cx, budget)
    checked = 0
    for u in molecule_list:
        members = u.members
        if len(cx.maximal(members)) < 2:
            checked += 1
            continue
        k = frame_dimension(cx, members)
        g = maxd(cx, members, max(k, 0))
        cycle = g.find_cycle()
        checked += 1
        if cycle is not None:
            return FrameAcyclicityReport(False, checked, truncated, members, cycle)
    return FrameAcyclicityReport(True, checked, truncated)


def k_order(u: mol.Molecule, k: int) -> KOrder | None:
    """A deterministic k-order on a molecule, or None if the frame graph loops.

    Ties are broken towards the lexicographically least ready vertex, so
    reruns and decompositions are reproducible.
    """
    if k >= u.dim:
        raise ValueError("k must be below the molecule dimension")
    g = maxd(u.complex, u.members, k)
    order = _lex_topo(g.adjacency)
    if order is None:
        return None
    high = frozenset(g.high)
    return KOrder(k, tuple(x for x in order if x in high))


def is_k_order(u: mol.Molecule, k: int, sequence: Sequence[str]) -> bool:
    g = maxd(u.complex, u.members, k)
    if sorted(sequence) != sorted(g.high):
        return False
    pos = {x: i for i, x in enumerate(sequence)}
    for x in g.high:
        for y in g.reachable(x):
            if y in pos and pos[y] < pos[x]:
                return False
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
    current = u.members
    seq = list(order.sequence)
    for i in range(len(seq) - 1):
        suffix = cx.closure(seq[i + 1 :]) | cx.boundary(current, k, PLUS)
        first = cx.closure(current - (suffix - cx.boundary(suffix, k, MINUS)))
        if not mol._is_split(cx, current, first, suffix, k):
            raise RuntimeError(f"frame decomposition split failed at index {i}")
        got = mol.recognize(cx, first)
        if got is None or got is mol.UNKNOWN:
            raise RuntimeError(f"frame decomposition factor at index {i} is not a molecule")
        factors.append(got)
        current = suffix
    got = mol.recognize(cx, current)
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
        return {v: _reachable(self.adjacency, v) for v in self.adjacency}

    def preceq(self, x: str, y: str) -> bool:
        if not self.acyclic:
            raise ValueError("precedence undefined on a looping subset")
        return x == y or y in self.reach[x]


def totally_loop_free(cx: Complex, members: frozenset[str] | None = None) -> LoopFreeReport:
    """Analyse the oriented Hasse graph: acyclicity, reachability, totality.

    The reachability preorder is available whenever the graph is acyclic; a
    total order is additionally returned exactly when reachability compares
    every pair, in which case it is the unique topological order.
    """
    if members is None:
        members = cx.whole()
    adj = cx.oriented_hasse(members)
    order = _lex_topo(adj)
    if order is None:
        return LoopFreeReport(False, False, None, adj, _find_cycle(adj))
    # a topological order is the only one exactly when consecutive vertices
    # are joined by an edge, i.e. reachability is total
    total = all(w in adj[v] for v, w in zip(order, order[1:]))
    return LoopFreeReport(True, total, tuple(order) if total else None, adj)


def normal_1_order(u: mol.Molecule) -> KOrder:
    """The canonical 1-order of a 2-molecule: its cells in precedence order."""
    if u.dim != 2:
        raise ValueError("normal 1-orders exist on 2-dimensional molecules only")
    return KOrder(1, normal_order_of_subset(u.complex, u.members))


def normal_order_of_subset(cx: Complex, members: frozenset[str]) -> tuple[str, ...]:
    """Precedence-sorted top cells of a 2-dimensional closed subset."""
    rep = totally_loop_free(cx, members)
    if rep.order is None:
        raise RuntimeError("precedence is not total on this subset")
    return tuple(x for x in rep.order if cx.dim_of(x) == 2)


def slice_decomposition(u: mol.Molecule, i: mol.Molecule) -> tuple[mol.Molecule, mol.Molecule]:
    """Cut a molecule of dimension <= 2 along a spanning 1-molecule.

    Returns the unique pair (below, above) with the cut as the shared
    1-boundary; re-pasting them reproduces the molecule.
    """
    cx = u.complex
    if u.dim > 2:
        raise ValueError("slice decomposition applies up to dimension 2")
    if i.complex is not cx or not i.members <= u.members:
        raise ValueError("the cut must be a subset of the molecule")
    if cx.boundary(i.members, 0, MINUS) != cx.boundary(u.members, 0, MINUS) or (
        cx.boundary(i.members, 0, PLUS) != cx.boundary(u.members, 0, PLUS)
    ):
        raise ValueError("the cut does not span the molecule's endpoints")
    if u.dim <= 1:
        if i.members != u.members:
            raise ValueError("a 1-molecule is only cut along itself")
        return u, u
    rep = totally_loop_free(cx, u.members)
    if rep.reach is None:
        raise RuntimeError("molecule precedence loops")
    # a cell is above the cut iff some cut wire feeds into it; the cut's
    # endpoint vertices are shared with everything and say nothing
    cut_wires = [w for w in i.members if cx.dim_of(w) == 1]
    above_cells = set()
    for x in u.members:
        if cx.dim_of(x) != 2:
            continue
        if any(x in rep.reach[w] for w in cut_wires):
            above_cells.add(x)
    below_cells = {x for x in u.members if cx.dim_of(x) == 2} - above_cells
    below = cx.closure(below_cells) | i.members
    above = cx.closure(above_cells) | i.members
    if below & above != i.members or not mol._is_split(cx, u.members, below, above, 1):
        raise ValueError("the cut does not slice the molecule")
    lo = mol.recognize(cx, below)
    hi = mol.recognize(cx, above)
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
        prev: dict[str, str] = {}
        stack = [src]
        seen = {src}
        while stack:
            v = stack.pop()
            for w in sorted(g.adjacency.get(v, ())):
                if w in seen:
                    continue
                seen.add(w)
                prev[w] = v
                if w in part_tops and w != src:
                    path = [w]
                    x = w
                    while x != src:
                        x = prev[x]
                        path.append(x)
                    path.reverse()
                    if any(p in outside for p in path):
                        return tuple(path)
                stack.append(w)
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
    for part, label in ((v_members, "first"), (w_members, "second")):
        if not part <= u.members or not cx.is_closed(part):
            raise ValueError(f"{label} site is not a closed subset of the molecule")
        got = mol.recognize(cx, part)
        if got is None or got is mol.UNKNOWN:
            raise ValueError(f"{label} site is not a molecule")
        if not mol.spherical(got):
            raise ValueError(f"{label} site does not have a spherical boundary")
    if v_members == w_members:
        # collapsing the site leaves its own composite, a submolecule by
        # construction, so an identical pair is trivially compatible
        return SimSubstitutionReport(True)
    vb = cx.boundary(v_members, None) | cx.boundary(w_members, None)
    if not (v_members & w_members) <= vb:
        raise ValueError("sites overlap beyond their boundaries")

    def one_way(first: frozenset[str], second: frozenset[str]) -> SimSubstitutionReport:
        fh = mol.recognize(cx, first)
        assert fh is not None and fh is not mol.UNKNOWN
        collapsed = mol.substitute(u, first, mol.compos(fh))
        assert collapsed.left_map is not None
        image = frozenset(collapsed.left_map[x] for x in second)
        sh = mol.recognize(collapsed.complex, image)
        if sh is None or sh is mol.UNKNOWN:
            path = _blocking_path(collapsed.complex, collapsed.members, image, n)
            return SimSubstitutionReport(
                False, path, "surviving site is no longer a molecule", collapsed, image
            )
        try:
            mol.substitute(collapsed, image, mol.compos(sh))
        except mol.SubstitutionError as exc:
            path = _blocking_path(collapsed.complex, collapsed.members, image, n)
            return SimSubstitutionReport(False, path, str(exc), collapsed, image)
        return SimSubstitutionReport(True)

    first_way = one_way(v_members, w_members)
    if not first_way:
        if n == 2:
            raise RuntimeError("dimension-2 simultaneous substitution must not fail")
        return first_way
    second_way = one_way(w_members, v_members)
    if not second_way and n == 2:
        raise RuntimeError("dimension-2 simultaneous substitution must not fail")
    return second_way
