"""Oriented graded posets: the carrier structure for diagram shapes.

An element has a dimension and a list of signed covers (the elements one
dimension below that it is attached to, each marked as input ``-`` or
output ``+``).  Everything else in the library is computed from this data:
closures, boundaries, the oriented Hasse graph, duals, and the regularity
checks that qualify a poset as a directed complex.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, TypeVar

MINUS = "-"
PLUS = "+"
SIGNS = (MINUS, PLUS)

V = TypeVar("V")


def flip(sign: str) -> str:
    """Negate a sign; an involution."""
    if sign == PLUS:
        return MINUS
    if sign == MINUS:
        return PLUS
    raise ValueError(f"not a sign: {sign!r}")


class StructureError(ValueError):
    """The element table is not a well-formed oriented graded poset.

    Distinct from regularity failure: a structurally broken input cannot
    even be loaded, while a structurally sound one may merely fail
    `validate_complex`.
    """


def _lex_topo(adj: Mapping[V, Iterable[V]]) -> list[V]:
    """The vertices of a digraph that Kahn's algorithm can take, in the
    lexicographically least topological order: every vertex exactly when
    the graph is acyclic.

    Kahn's algorithm with a heap: each step takes the least vertex with no
    predecessor left.  ``adj`` maps every vertex to its successors; vertices
    are ordered by ``<`` (ids as strings, `_Index.frame_order` by rank).
    Each vertex left out has a predecessor that is also left out, so a
    cycle can be read off them (`orders._find_cycle`).
    """
    need = dict.fromkeys(adj, 0)  # predecessors not yet taken
    for ws in adj.values():
        for w in ws:
            need[w] += 1
    ready = [v for v, count in need.items() if not count]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in adj[v]:
            need[w] -= 1
            if not need[w]:
                heapq.heappush(ready, w)
    return out


def _unique_topo(adj: Mapping[V, Iterable[V]]) -> list[V] | None:
    """The topological order of a digraph when it is the only one, or None
    when the graph has a cycle or more than one topological order.

    The order of `_lex_topo`, kept when it takes every vertex and each
    vertex is joined to the next by an edge: then every step had one
    choice, and reachability compares every pair.
    """
    order = _lex_topo(adj)
    if len(order) == len(adj) and all(w in adj[v] for v, w in zip(order, order[1:])):
        return order
    return None


class _Index:
    """A complex's elements as bit positions, and per-element masks.

    Element ids are numbered in (dim, id) order, so the elements of each
    dimension fill one contiguous bit range and the dimension of a nonempty
    mask is the dimension of its top bit.  A subset is an ``int`` whose bit
    ``i`` marks element ``ids[i]``, and ``rank[i]`` is the place of ``ids[i]``
    in sorted-id order.  Each element has a downset mask (its closure), a
    cover mask, and one coface mask per sign; each cell's sides in the frame
    graphs of each level are cached here as masks.  ``boundary`` gives a
    mask's input and output n-boundaries as one pair, from one pass, and
    ``boundaries`` the pairs of every level below a top, from one sweep; a
    caller that needs one sign takes it from the pair.  The index is built
    from the complex's checked table of dimensions and covers alone, and it
    holds the only copy of the coface relation and of the per-dimension
    lists, which ``Complex.cofaces`` and ``Complex.by_dim`` read.  ``path``
    walks a 1-dimensional mask from its start point and returns its arrows in
    path order, or None when the mask is not a single path; recognition and
    the SVG wire layers both read it.  ``two_ended`` tells recognition that a
    mask which is no path is no molecule either.

    The complex is immutable, so what is found about it is a pure function
    of this index and is kept here: ``recognized`` maps each closed mask
    whose recognition search has finished to its certificate, ``None`` or
    ``UNKNOWN``, ``report`` holds `validate_complex`'s checks once made, and
    ``precedence`` maps support masks to `graycat._precedence`.  Entries are
    only ever added, each in one assignment, so threads sharing a complex at
    worst repeat a search and store an equal result.
    """

    __slots__ = (
        "name", "ids", "pos", "rank", "dims", "lower", "down", "cover", "cofaces", "sides",
        "recognized", "report", "precedence",
    )

    def __init__(self, cx: "Complex"):
        ids = tuple(sorted(cx._ids, key=cx._dim.__getitem__))  # stable: (dim, id)
        pos = {x: i for i, x in enumerate(ids)}
        self.name = cx.name
        self.ids = ids
        self.pos = pos
        self.rank = [0] * len(ids)
        for r, x in enumerate(cx._ids):  # sorted by id
            self.rank[pos[x]] = r
        self.dims = [cx._dim[x] for x in ids]
        # lower[d] masks the elements of dimension < d, for 0 <= d <= dim + 1;
        # grading leaves no dimension empty below the top
        self.lower = [0] * (cx.dim + 2)
        for i, d in enumerate(self.dims):
            self.lower[d + 1] = (2 << i) - 1
        self.down: list[int] = []
        self.cover: list[int] = []
        self.cofaces = {MINUS: [0] * len(ids), PLUS: [0] * len(ids)}
        for i, x in enumerate(ids):
            cover = down = 0
            for t, sign in cx._covers[x]:
                j = pos[t]
                cover |= 1 << j
                down |= self.down[j]
                self.cofaces[sign][j] |= 1 << i
            self.cover.append(cover)
            self.down.append(down | 1 << i)
        self.sides: dict[tuple[int, int], tuple[int, int]] = {}
        self.recognized: dict[int, object] = {}
        self.report: tuple | None = None
        self.precedence: dict[int, tuple] = {}

    def mask(self, members: Iterable[str]) -> int:
        pos = self.pos
        out = 0
        try:
            for x in members:
                out |= 1 << pos[x]
        except KeyError as exc:
            raise KeyError(f"{self.name}: unknown element {exc.args[0]!r}") from None
        return out

    def members(self, m: int) -> frozenset[str]:
        ids = self.ids
        out = []
        while m:
            low = m & -m
            out.append(ids[low.bit_length() - 1])
            m ^= low
        return frozenset(out)

    def ranks(self, m: int) -> list[int]:
        """The ranks of the elements of ``m``, lowest bit first."""
        rank = self.rank
        out = []
        while m:
            low = m & -m
            out.append(rank[low.bit_length() - 1])
            m ^= low
        return out

    def dim(self, m: int) -> int:
        """Greatest dimension in ``m``, -1 when empty."""
        return self.dims[m.bit_length() - 1] if m else -1

    def below(self, n: int) -> int:
        """The mask of all elements of dimension < ``n``: none when ``n <= 0``."""
        lower = self.lower
        return lower[n] if 0 <= n < len(lower) else 0 if n < 0 else lower[-1]

    def closure(self, m: int) -> int:
        """The downset of ``m``: each step takes the top bit not yet covered."""
        down = self.down
        out = 0
        while m:
            out |= down[m.bit_length() - 1]
            m &= ~out
        return out

    def maximal(self, m: int) -> int:
        """Elements of ``m`` not covered by any other member."""
        cover = self.cover
        covered = 0
        rest = m
        while rest:
            low = rest & -rest
            covered |= cover[low.bit_length() - 1]
            rest ^= low
        return m & ~covered

    def sources(self, m: int, n: int) -> tuple[int, int]:
        """The closures of both source sets of ``m`` at level ``n``: n-dimensional
        members with no covering member of the opposite sign, input then output."""
        down, into, out_of = self.down, self.cofaces[MINUS], self.cofaces[PLUS]
        minus = plus = 0
        rest = m & self.below(n + 1) & ~self.below(n)
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if not out_of[i] & m:
                minus |= down[i]
            if not into[i] & m:
                plus |= down[i]
        return minus, plus

    def boundary(self, m: int, n: int) -> tuple[int, int]:
        """The input and output n-boundaries of ``m``, from one pass: the
        closures of its two source sets, each with the members that nothing
        above level n covers."""
        if n < 0:
            return 0, 0
        swallowed = m & ~self.closure(m & ~self.below(n + 1))
        minus, plus = self.sources(m, n)
        return minus | swallowed, plus | swallowed

    def boundaries(self, m: int, top: int) -> list[tuple[int, int]]:
        """``[boundary(m, k) for k < top]``.

        The closure of the members above level k, shared by both signs,
        grows by one dimension per level from the top down.
        """
        above = 0
        out: list = [None] * top
        for k in range(max(top, self.dim(m)) - 1, -1, -1):
            above |= self.closure(m & ~self.below(k + 1) & ~above)
            if k < top:
                swallowed = m & ~above
                minus, plus = self.sources(m, k)
                out[k] = (minus | swallowed, plus | swallowed)
        return out

    def frame_dimension(self, maximal: int) -> int:
        """The greatest dimension in which two cells of ``maximal`` overlap, -1
        when none do: the top bit of each cell's overlap with the cells before."""
        down, dims = self.down, self.dims
        seen, best, rest = 0, -1, maximal
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            overlap = down[i] & seen
            if overlap:
                best = max(best, dims[overlap.bit_length() - 1])
            seen |= down[i]
        return best

    def frame_sides(self, m: int, maximal: int, n: int) -> list[tuple[int, int, int]]:
        """``(cell, input, output)`` for each cell of ``maximal`` above dimension n: the
        members of its input and output n-boundary off its (n-1)-boundary (cached per cell)."""
        out = []
        rest = maximal & ~self.below(n + 1)
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            got = self.sides.get((i, n))
            if got is None:
                lo, hi = self.boundary(self.down[i], n - 1)
                got = self.sides[i, n] = tuple(b & ~(lo | hi) for b in self.boundary(self.down[i], n))
            out.append((i, got[0] & m, got[1] & m))
        return out

    def frame_order(self, m: int, maximal: int, n: int) -> list[int] | None:
        """The cells of ``maximal`` above dimension n in the lexicographically
        least topological order of the level-n frame graph of ``m``, or None
        when that graph has a cycle.

        `_lex_topo` over the graph with each element named by its rank, so
        that the least rank is the least id.  Only the low elements that
        enter some cell can hold a cell back; the others are left out, as
        popping them would not change which cells are ready.
        """
        sides = self.frame_sides(m, maximal, n)
        rank = self.rank
        entered = 0
        for _, into, _ in sides:
            entered |= into
        succ: dict[int, list[int]] = {r: [] for r in self.ranks(entered)}
        high: dict[int, int] = {}  # rank -> bit of each high cell
        for i, into, out in sides:
            r = rank[i]
            high[r] = i
            for j in self.ranks(into):
                succ[j].append(r)
            succ[r] = self.ranks(out & entered)
        order = _lex_topo(succ)
        return [high[r] for r in order if r in high] if len(order) == len(succ) else None

    def path(self, m: int) -> list[int] | None:
        """The arrows of a closed mask of dimension <= 1 in path order, or None
        when it is not a path.

        A path starts at its one point that is no arrow's output, and points
        and arrows alternate from there: each arrow covers exactly one input
        and one distinct output point, and every member is visited once.  A
        single point is the path with no arrows.  An empty mask has no start,
        and the walk never visits a member above dimension 1, so neither is
        a path.
        """
        start = self.sources(m, 0)[0]  # points that are no member's output
        if not start or start & (start - 1):
            return None
        into, cover = self.cofaces[MINUS], self.cover
        at = start.bit_length() - 1
        seen = start
        arrows = []
        while True:
            step = into[at] & m  # the arrows leaving the point reached
            if not step:
                return arrows if seen == m else None
            a = step.bit_length() - 1
            end = cover[a] & ~(1 << at)  # the arrow's other points
            # an arrow whose other point is an input too leaves that point as
            # well, so the next step finds it again and meets a seen point
            if step & (step - 1) or not end or end & (end - 1) or end & seen:
                return None
            arrows.append(a)
            seen |= step | end
            at = end.bit_length() - 1

    def two_ended(self, m: int) -> bool:
        """Whether every arrow of ``m`` covers exactly one input point and one
        output point.  In a mask whose arrows all do, every molecule is a path."""
        into, cover = self.cofaces[MINUS], self.cover
        rest = m & self.below(2) & ~self.below(1)
        while rest:
            low = rest & -rest
            rest ^= low
            ends = cover[low.bit_length() - 1]
            first = ends & -ends
            second = ends ^ first
            if not second or second & (second - 1):
                return False
            if bool(into[first.bit_length() - 1] & low) == bool(into[second.bit_length() - 1] & low):
                return False  # both ends inputs, or both outputs
        return True


class Complex:
    """A finite oriented graded poset.

    ``elements`` maps an opaque string id to ``(dim, covers)`` where
    ``covers`` is an iterable of ``(target_id, sign)`` pairs.  Construction
    checks the structural invariants:

    * every cover target exists and has dimension exactly one less;
    * an element of dimension >= 1 covers at least one element, an element
      of dimension 0 covers none;
    * no element covers the same target twice (no parallel Hasse edges).

    Instances are immutable after construction and safe to share.  A
    complex keeps only the checked table: each element's dimension and
    covers.  On first use it builds an integer index: its elements numbered
    in (dim, id) order, subsets held as ``int`` bitmasks, and each element's
    downset, cover and signed coface masks.  ``cofaces`` and ``by_dim`` are
    read from that index.  Closures, boundaries, source sets, maximal
    elements and closedness are mask arithmetic on it, behind signatures
    that take and return ``frozenset`` ids; ``_boundary_pair`` computes
    both signs of a boundary in one pass, for callers that need both, and
    ``boundary`` answers one sign or their union from it.  The index also
    caches each cell's input and output boundaries off its rim, which frame
    graphs are built from, the result of each finished recognition search,
    `validate_complex`'s checks and graycat's precedences; that only saves
    recomputation, and there is no other cache.
    """

    __slots__ = ("name", "_dim", "_covers", "_ids", "_top_dim", "_ix")

    def __init__(self, name: str, elements: Mapping[str, tuple[int, Iterable[tuple[str, str]]]]):
        self.name = name
        dims: dict[str, int] = {}
        covers: dict[str, tuple[tuple[str, str], ...]] = {}
        for eid in sorted(elements):
            dim, cov = elements[eid]
            if dim < 0:
                raise StructureError(f"{name}: element {eid!r} has negative dimension")
            dims[eid] = dim
            covers[eid] = tuple(cov)
        for eid, cov in covers.items():
            seen: set[str] = set()
            for tgt, sign in cov:
                if sign not in SIGNS:
                    raise StructureError(f"{name}: element {eid!r} has invalid sign {sign!r}")
                if tgt not in dims:
                    raise StructureError(f"{name}: element {eid!r} covers missing element {tgt!r}")
                if tgt in seen:
                    raise StructureError(f"{name}: element {eid!r} covers {tgt!r} twice")
                seen.add(tgt)
                if dims[tgt] != dims[eid] - 1:
                    raise StructureError(
                        f"{name}: grading broken on {eid!r} -> {tgt!r} "
                        f"(dims {dims[eid]} -> {dims[tgt]})"
                    )
            if dims[eid] >= 1 and not cov:
                raise StructureError(f"{name}: element {eid!r} of dimension {dims[eid]} covers nothing")
        self._dim = dims
        self._covers = covers
        self._ids = tuple(dims)  # filled in sorted-id order
        self._top_dim = max(dims.values(), default=-1)
        self._ix: _Index | None = None

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, eid: str) -> bool:
        return eid in self._dim

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __repr__(self) -> str:
        return f"Complex({self.name!r}, {len(self)} elements, dim {self.dim})"

    @property
    def dim(self) -> int:
        return self._top_dim

    def elements(self) -> tuple[str, ...]:
        return self._ids

    def dim_of(self, eid: str) -> int:
        return self._dim[eid]

    def covers(self, eid: str) -> tuple[tuple[str, str], ...]:
        """Signed covers of ``eid`` (one dimension down)."""
        return self._covers[eid]

    def cofaces(self, eid: str) -> tuple[tuple[str, str], ...]:
        """Signed elements covering ``eid`` (one dimension up), read from the index."""
        ix = self._index()
        i = ix.pos[eid]
        return tuple(sorted((y, s) for s in SIGNS for y in ix.members(ix.cofaces[s][i])))

    def by_dim(self, n: int) -> tuple[str, ...]:
        """The elements of dimension ``n`` in id order, read from the index."""
        ix = self._index()
        return ix.ids[ix.below(n).bit_length() : ix.below(n + 1).bit_length()]

    def dim_of_subset(self, members: Iterable[str]) -> int:
        """Greatest element dimension in ``members``, -1 when empty."""
        return max((self._dim[x] for x in members), default=-1)

    # -- subsets ----------------------------------------------------------

    def _index(self) -> _Index:
        """The integer index, built on first use."""
        ix = self._ix
        if ix is None:
            ix = self._ix = _Index(self)
        return ix

    def closure(self, members: Iterable[str]) -> frozenset[str]:
        """Smallest downward-closed superset of ``members``."""
        ix = self._index()
        return ix.members(ix.closure(ix.mask(members)))

    def is_closed(self, members: frozenset[str]) -> bool:
        ix = self._index()
        m = ix.mask(members)
        return ix.closure(m) == m

    def maximal(self, members: frozenset[str]) -> frozenset[str]:
        """Elements of ``members`` not covered by any other member."""
        ix = self._index()
        return ix.members(ix.maximal(ix.mask(members)))

    def source_set(self, members: frozenset[str], n: int, sign: str) -> frozenset[str]:
        """n-dimensional members all of whose covering members carry ``sign``.

        Members of dimension n with no covering member at all are included:
        the n-dimensional part of `_Index.sources`.
        """
        ix = self._index()
        minus, plus = ix.sources(ix.mask(members), n)
        return ix.members((plus if flip(sign) == MINUS else minus) & ~ix.below(n))

    def boundary(self, members: frozenset[str], n: int | None = None, sign: str | None = None) -> frozenset[str]:
        """The input (``-``) or output (``+``) n-boundary of a closed subset.

        With ``sign`` omitted, the union over both signs; with ``n`` omitted,
        ``dim(members) - 1``.
        """
        minus, plus = self._boundary_pair(members, n)
        return minus | plus if sign is None else plus if flip(sign) == MINUS else minus

    def _boundary_pair(self, members: frozenset[str], n: int | None) -> tuple[frozenset[str], frozenset[str]]:
        """The input and output n-boundaries of a closed subset, from one pass."""
        ix = self._index()
        m = ix.mask(members)
        minus, plus = ix.boundary(m, ix.dim(m) - 1 if n is None else n)
        return ix.members(minus), ix.members(plus)

    def whole(self) -> frozenset[str]:
        return frozenset(self._ids)

    # -- derived structures -------------------------------------------------

    def oriented_hasse(self, members: frozenset[str] | None = None) -> dict[str, tuple[str, ...]]:
        """Hasse diagram with the input-labelled edges reversed.

        Edge ``y -> x`` for each output cover, ``x -> y`` for each input
        cover.  Returned as a sorted adjacency map over ``members`` (the
        whole complex by default).
        """
        if members is None:
            members = self.whole()
        adj = self._hasse(members)
        return {v: tuple(sorted(adj[v])) for v in sorted(adj)}

    def _hasse(self, members: frozenset[str]) -> dict[str, list[str]]:
        """`oriented_hasse` of ``members`` unsorted, with its edge lists."""
        covers = self._covers
        adj: dict[str, list[str]] = {x: [] for x in members}
        for y in members:
            for x, sign in covers[y]:
                if x in members:
                    if sign == PLUS:
                        adj[y].append(x)
                    else:
                        adj[x].append(y)
        return adj

    def restrict(self, members: frozenset[str], name: str | None = None) -> "Complex":
        """The induced sub-poset on a closed subset, as a standalone complex."""
        if not self.is_closed(members):
            raise ValueError(f"{self.name}: cannot restrict to a non-closed subset")
        table = {
            x: (self._dim[x], [(t, s) for t, s in self._covers[x]])
            for x in members
        }
        return Complex(name or f"{self.name}|{len(members)}", table)

    def dual(self, dims: Iterable[int] | None = None, name: str | None = None) -> "Complex":
        """Reverse orientations; a cover of ``y`` flips iff ``dim(y)`` is selected.

        With ``dims`` omitted every cover flips.  Applying the same ``dims``
        twice gives back an identical encoding.
        """
        selected = None if dims is None else frozenset(dims)
        table = {}
        for x in self._ids:
            cov = [
                (t, flip(s) if selected is None or self._dim[x] in selected else s)
                for t, s in self._covers[x]
            ]
            table[x] = (self._dim[x], cov)
        return Complex(name or f"{self.name}^op", table)

    def relabel(self, mapping: Mapping[str, str], name: str | None = None) -> "Complex":
        """Rename elements; ``mapping`` must be injective on the element set."""
        new_ids = {x: mapping.get(x, x) for x in self._ids}
        if len(set(new_ids.values())) != len(new_ids):
            raise ValueError("relabelling is not injective")
        table = {
            new_ids[x]: (self._dim[x], [(new_ids[t], s) for t, s in self._covers[x]])
            for x in self._ids
        }
        return Complex(name or self.name, table)


# -- validation -------------------------------------------------------------

PASS = "PASS"
FAIL = "FAIL"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ElementReport:
    element: str
    dim: int
    spherical: bool
    input_molecule: str
    output_molecule: str
    globular: bool | None  # None below dimension 2

    @property
    def ok(self) -> bool:
        return (
            self.spherical
            and self.input_molecule != FAIL
            and self.output_molecule != FAIL
            and self.globular is not False
        )


@dataclass(frozen=True)
class ValidationReport:
    complex_name: str
    checks: tuple[ElementReport, ...]
    passed: bool
    unknowns: int = 0

    def failures(self) -> tuple[ElementReport, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _spherical(bds: list[tuple[int, int]]) -> bool:
    """Whether the pairs of `_Index.boundaries`, from level 0 up, are spherical:
    at each level the two boundaries meet exactly in the union of the level
    below."""
    inner = 0
    for minus, plus in bds:
        if minus & plus != inner:
            return False
        inner = minus | plus
    return True


def spherical_boundary(cx: Complex, members: frozenset[str]) -> bool:
    """Whether the two k-boundaries only meet in the (k-1)-boundary, all k."""
    ix = cx._index()
    m = ix.mask(members)
    return _spherical(ix.boundaries(m, ix.dim(m)))


def validate_complex(cx: Complex) -> ValidationReport:
    """Check every element's cell-shaped-ness: spherical closure, molecule
    boundaries and globularity.

    Each cell of dimension n is checked from one sweep of its boundaries
    (`_Index.boundaries`): the pairs are spherical, the two (n-1)-boundaries
    are molecules, and, from n = 2, each (n-1)-boundary has the cell's own
    (n-2)-boundaries.  Molecule recognition is complete up to 3-dimensional
    boundaries; higher boundaries report UNKNOWN rather than FAIL.  Overall
    PASS iff nothing reports FAIL or a broken invariant.  The checks are
    made once per complex and kept on its index; each call reports them
    under the complex's current name.
    """
    ix = cx._index()
    got = ix.report
    if got is None:
        got = ix.report = _checks(cx, ix)
    checks, passed, unknowns = got
    return ValidationReport(cx.name, checks, passed, unknowns)


def _checks(cx: Complex, ix: _Index) -> tuple[tuple[ElementReport, ...], bool, int]:
    """`validate_complex`'s element checks, verdict and count of UNKNOWNs."""
    from . import molecules  # recogniser lives one level up

    checks = []
    unknowns = 0
    for x in cx.elements():
        i = ix.pos[x]
        n = ix.dims[i]
        if n < 1:
            continue
        bds = ix.boundaries(ix.down[i], n)
        statuses = []
        for b in bds[n - 1]:
            res = molecules._recognized(ix, b)
            if res is molecules.UNKNOWN:
                statuses.append(UNKNOWN)
                unknowns += 1
            else:
                statuses.append(FAIL if res is None else PASS)
        glob = all(ix.boundary(b, n - 2) == bds[n - 2] for b in bds[n - 1]) if n >= 2 else None
        checks.append(ElementReport(x, n, _spherical(bds), *statuses, glob))
    return tuple(checks), all(c.ok for c in checks), unknowns
