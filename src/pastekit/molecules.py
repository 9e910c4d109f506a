"""Molecules: composable diagram shapes inside oriented graded posets.

A molecule handle pairs a closed subset with a certificate: a tree whose
leaves are atoms, named by the id of their greatest element, and whose nodes
paste two subtrees along a matching k-boundary.  Certificates hold atom ids
only; the member set of a node is derived from them (the closure of an
atom's top, the union of a pasting's halves).  Constructors (`globe`,
`paste`, `cell_to`, `compos`, `substitute`) build certificates as they go;
`recognize` rebuilds one from a bare closed subset by exhaustive split
search (complete up to dimension 3) on the complex's bitmask index, one
search per subset on an explicit stack, so its depth does not grow.  A cut
of a frame order allows one split at most, built by `_cut`, which the
search and the decompositions of `orders` share.  A 1-dimensional path of
arrows is read off in one walk instead, and a 1-dimensional subset whose
arrows all have both ends is refused unless it is such a path.
`unique_iso` pairs two subsets along the one topological order of their
oriented Hasse graphs, and searches only when they have none.

Gluing has one table builder, `_glue`: it keeps a subset of each part,
identifies elements of a part with elements of the part before, and gives
the rest the id that gluing the parts two at a time, left to right, would
(``left/x``, ``right/y``; matched elements keep their left id).
`_paste_all` pastes a whole sequence at one level with one `_glue` call,
and `paste` is its two-factor case; `cell_to`, `compos` and `substitute`
glue two parts with it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Mapping, TypeVar

from .ogp import Complex, MINUS, PLUS, SIGNS, _Index, _unique_topo, spherical_boundary

T = TypeVar("T")


class PastingError(ValueError):
    """A gluing operation's boundary matching failed."""


class SubstitutionError(ValueError):
    """A substitution could not be verified to produce a molecule."""


class _Unknown:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNKNOWN"

    def __bool__(self) -> bool:
        return False


#: Returned by `recognize` when the search is exhausted above dimension 3,
#: where a failed search does not certify a non-molecule.
UNKNOWN = _Unknown()


@dataclass(frozen=True)
class Atom:
    top: str


@dataclass(frozen=True, eq=False, repr=False)
class Pasting:
    """Certificate node: ``left`` pasted to ``right`` along their k-boundary.

    The halves are certificates over the same atom ids, not molecule
    handles; their member sets are derived by `certificate_ok`.  Equality,
    hash and repr walk the tree without recursion, so a chain's
    certificate may be as deep as the chain.
    """

    k: int
    left: "Atom | Pasting"
    right: "Atom | Pasting"

    def _prefix(self) -> list:
        """The nodes in prefix order, each atom as itself and each pasting as
        its k; a pasting has two halves and an atom none, so this list
        determines the tree."""
        return _fold(self, lambda a: [a], lambda p, left, right: [p.k, *left, *right])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pasting):
            return NotImplemented
        return self is other or self._prefix() == other._prefix()

    def __hash__(self) -> int:
        return hash(tuple(self._prefix()))

    def __repr__(self) -> str:
        # the fold yields pieces, joined once, so the text of a deep chain's
        # halves is not copied again at every node
        pieces = _fold(
            self, lambda a: [repr(a)], lambda p, left, right: [f"Pasting(k={p.k}, left=", *left, ", right=", *right, ")"]
        )
        return "".join(pieces)


@dataclass(frozen=True, eq=False)
class Molecule:
    """A certified molecule: a closed subset of an ambient complex.

    ``left_map`` / ``right_map`` record element origins for handles produced
    by gluing constructors (old id -> id in the new ambient complex).
    """

    complex: Complex
    members: frozenset[str]
    certificate: Atom | Pasting
    left_map: Mapping[str, str] | None = None
    right_map: Mapping[str, str] | None = None

    @property
    def dim(self) -> int:
        return self.complex.dim_of_subset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        kind = "atom" if isinstance(self.certificate, Atom) else f"pasting@{self.certificate.k}"
        return f"Molecule({self.complex.name!r}, {len(self)} elements, dim {self.dim}, {kind})"

    def boundary(self, n: int | None = None, sign: str | None = None) -> frozenset[str]:
        return self.complex.boundary(self.members, n, sign)

    def as_complex(self, name: str | None = None) -> Complex:
        return self.complex.restrict(self.members, name)


def spherical(u: Molecule | tuple[Complex, frozenset[str]]) -> bool:
    if isinstance(u, Molecule):
        return spherical_boundary(u.complex, u.members)
    cx, members = u
    return spherical_boundary(cx, members)


# -- basic shapes -------------------------------------------------------------


def globe(n: int) -> Complex:
    """The n-globe: one top cell, a pair of cells in every lower dimension."""
    if n < 0:
        raise ValueError("globe dimension must be >= 0")
    table: dict[str, tuple[int, list[tuple[str, str]]]] = {}
    for k in range(n):
        below = [] if k == 0 else [(f"{k-1}-", MINUS), (f"{k-1}+", PLUS)]
        table[f"{k}-"] = (k, list(below))
        table[f"{k}+"] = (k, list(below))
    top_below = [] if n == 0 else [(f"{n-1}-", MINUS), (f"{n-1}+", PLUS)]
    table[str(n)] = (n, top_below)
    return Complex(f"O{n}", table)


def whole(cx: Complex) -> Molecule:
    """Handle for the full complex, recognising the certificate on the fly.

    Raises ``ValueError`` when the complex is not a molecule, or when
    recognition cannot tell above dimension 3.
    """
    res = recognize(cx, cx.whole())
    if res is None:
        raise ValueError(f"{cx.name}: not a molecule")
    if res is UNKNOWN:
        raise ValueError(f"{cx.name}: molecule status unknown")
    return res


def globe_molecule(n: int) -> Molecule:
    cx = globe(n)
    return Molecule(cx, cx.closure([str(n)]), Atom(str(n)))


def interval_chain(n: int) -> Molecule:
    """The 1-molecule with n arrows pasted end to end.

    Equal in every field to ``paste(...paste(O1, O1, 0)..., O1, 0)``, built
    by `_paste_all` as one element table: one `Complex` for the chain, and
    each arrow matched with the one before on a single 0-boundary point.
    """
    if n < 1:
        raise ValueError("interval chains need at least one arrow")
    return _paste_all([globe_molecule(1)] * n, 0)


def u_cell(n: int, m: int) -> Molecule:
    """The 2-atom with n input wires and m output wires."""
    if n < 1 or m < 1:
        raise ValueError(f"u-cells need at least one input and one output wire, not ({n}, {m})")
    return cell_to(interval_chain(n), interval_chain(m))


# -- isomorphism --------------------------------------------------------------


def _fingerprints(cx: Complex, members: frozenset[str]) -> dict[str, tuple]:
    """Structural invariants refined until the partition they induce is stable.

    Each round refines the last, so an unchanged class count means an
    unchanged partition.  Isomorphic subsets get equal codes round for round.
    """
    fp = {x: (cx.dim_of(x),) for x in members}
    while True:
        down: dict[str, list] = {x: [] for x in members}
        up: dict[str, list] = {x: [] for x in members}
        for x in members:
            for t, s in cx.covers(x):
                if t in members:
                    down[x].append((s, fp[t]))
                    up[t].append((s, fp[x]))
        nxt = {x: (fp[x], tuple(sorted(down[x])), tuple(sorted(up[x]))) for x in members}
        # re-encode to keep the tuples from growing without bound
        codes = {v: i for i, v in enumerate(sorted(set(nxt.values())))}
        if len(codes) == len(set(fp.values())):
            return fp
        fp = {x: (cx.dim_of(x), codes[nxt[x]]) for x in members}


def unique_iso(
    u: Molecule | tuple[Complex, frozenset[str]],
    v: Molecule | tuple[Complex, frozenset[str]],
) -> dict[str, str] | None:
    """The isomorphism between two molecules, if one exists.

    An isomorphism maps the oriented Hasse graph of one subset onto that of
    the other, so it maps a topological order of one onto a topological
    order of the other.  When each graph has exactly one
    (`ogp._unique_topo`), the only candidate pairs the two orders position
    by position; it is checked for dimensions and signed covers inside the
    subsets and returned, or None.  That map is unique by construction: an
    automorphism keeps the one order, so it is the identity.  When only one
    side has a unique order, the subsets are not isomorphic.  A single
    element is its own order, so two of them (the points matched by each
    pasting at level 0) are paired without building the graphs.

    When neither has one, the elements are matched by a search, from the
    bottom dimension up, among the candidates of equal refined fingerprint
    (`_fingerprints`).  Molecules of regular complexes are isomorphic in at
    most one way; a second distinct isomorphism found by the search is
    reported as an internal consistency error.
    """
    acx, a = (u.complex, u.members) if isinstance(u, Molecule) else u
    bcx, b = (v.complex, v.members) if isinstance(v, Molecule) else v
    if len(a) != len(b):
        return None
    if len(a) == 1:
        (x,), (y,) = a, b
        return {x: y} if acx.dim_of(x) == bcx.dim_of(y) else None
    ga, gb = acx._hasse(a), bcx._hasse(b)
    oa, ob = _unique_topo(ga), _unique_topo(gb)
    if oa is not None or ob is not None:
        if oa is None or ob is None:
            return None
        fwd = dict(zip(oa, ob))
        # with dimensions kept, an edge is one signed cover: the upper end
        # covers the lower one, with the sign its direction gives
        adim, bdim = acx.dim_of, bcx.dim_of
        for x, y in fwd.items():
            if adim(x) != bdim(y) or {fwd[w] for w in ga[x]} != set(gb[y]):
                return None
        return fwd
    fpa = _fingerprints(acx, a)
    fpb = _fingerprints(bcx, b)
    if sorted(fpa.values()) != sorted(fpb.values()):
        return None
    by_fp: dict[tuple, list[str]] = {}
    for y in sorted(b):
        by_fp.setdefault(fpb[y], []).append(y)
    # match from the bottom dimension up, in (dim, id) order, so each
    # element's covers are matched before it
    order = sorted(a, key=lambda x: (acx.dim_of(x), x))
    fwd: dict[str, str] = {}
    used: set[str] = set()
    found: list[dict[str, str]] = []

    def images(i: int) -> Iterator[str]:
        """The unused images of ``order[i]`` with its signed covers under
        ``fwd``; a generator, so it reads ``fwd`` when first drawn from."""
        x = order[i]
        # every signed cover is verified once, when its upper element is matched
        down = {(fwd[t], s) for t, s in acx.covers(x) if t in a}
        for y in by_fp.get(fpa[x], ()):
            if y not in used and down == {(t, s) for t, s in bcx.covers(y) if t in b}:
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


# -- gluing constructors -------------------------------------------------------


def _glue(parts: list[tuple[Complex, frozenset[str], Mapping[str, str]]]) -> tuple[dict, list[dict[str, str]]]:
    """The element table of kept subsets glued in sequence, and each part's origin map.

    ``parts`` lists ``(complex, kept members, ident)``, where ``ident`` maps
    an element of the part to the element of the previous part it is
    identified with, whose new id it takes.  Any other element of part i
    takes the id that gluing the parts two at a time, left to right, gives
    it: ``left/`` once for each later part, then ``right/`` unless i is 0.
    Each element keeps its covers, in order, that lie inside its kept subset.
    """
    last = len(parts) - 1
    table: dict[str, tuple[int, list[tuple[str, str]]]] = {}
    maps: list[dict[str, str]] = []
    for i, (cx, keep, ident) in enumerate(parts):
        prefix = "left/" * (last - i) + ("right/" if i else "")
        prev = maps[-1] if maps else {}
        rename = {x: prev[ident[x]] if x in ident else prefix + x for x in keep}
        for x in keep:
            if x not in ident:
                table[rename[x]] = (cx.dim_of(x), [(rename[t], s) for t, s in cx.covers(x) if t in keep])
        maps.append(rename)
    return table, maps


def _mismatch(acx: Complex, a: frozenset[str], bcx: Complex, b: frozenset[str]) -> str:
    """Where two non-isomorphic subsets first differ, for error messages:
    the least dimension whose element counts disagree."""
    ca = Counter(acx.dim_of(x) for x in a)
    cb = Counter(bcx.dim_of(y) for y in b)
    sizes = f"sizes {len(a)} vs {len(b)}"
    differ = [n for n in ca.keys() | cb.keys() if ca[n] != cb[n]]
    if not differ:
        return f"element counts agree in every stratum, {sizes}"
    n = min(differ)
    return f"first mismatch in stratum {n} ({ca[n]} vs {cb[n]} elements), {sizes}"


def _sphere_iso(
    u: Molecule, v: Molecule, k: int, differ: Callable[[str, str], Exception], disagree: str
) -> dict[str, str]:
    """The isomorphism of both signed k-boundaries of ``u`` onto those of ``v``.

    Raises ``differ(sign, mismatch)`` when a pair of boundaries is not
    isomorphic, and ``RuntimeError(disagree)`` when the two halves disagree
    where they meet.
    """
    iso: dict[str, str] = {}
    pairs = zip(SIGNS, u.complex._boundary_pair(u.members, k), v.complex._boundary_pair(v.members, k))
    for sign, a, b in pairs:
        part = unique_iso((u.complex, a), (v.complex, b))
        if part is None:
            raise differ(sign, _mismatch(u.complex, a, v.complex, b))
        for x, y in part.items():
            if iso.get(x, y) != y:
                raise RuntimeError(disagree)
            iso[x] = y
    return iso


def paste(u1: Molecule, u2: Molecule, k: int, name: str | None = None) -> Molecule:
    """Glue two molecules along the output/input k-boundary isomorphism.

    Element count of the result is ``len(u1) + len(u2) - len(boundary)``.
    Ids are namespaced ``left/`` and ``right/``; matched boundary elements
    keep their left id.  Origin maps record where every element went.
    """
    return _paste_all([u1, u2], k, name)


def _paste_all(us: list[Molecule], k: int, name: str | None = None) -> Molecule:
    """The left fold ``paste(...paste(us[0], us[1], k)..., us[-1], k)``, equal
    to it in every field, built as one element table and one `Complex`.

    The factors must be molecules.  Since the output k-boundary of ``U #k V``
    is that of ``V``, each factor is matched only with the factor before it,
    on their own boundaries, both of which one call gives; one `_glue` table
    then gives every element the id the fold gives it.  The complex is
    called ``name``, by default the fold's nested ``(…#k…)``.
    """
    if len(us) == 1:
        return us[0]
    if k < 0:
        raise PastingError("pasting dimension must be >= 0")
    first = us[0]
    nested = first.complex.name
    b1 = first.complex._boundary_pair(first.members, k)[1]
    parts = [(first.complex, first.members, {})]
    for prev, u in zip(us, us[1:]):
        b2, out = u.complex._boundary_pair(u.members, k)
        iso = unique_iso((prev.complex, b1), (u.complex, b2))
        if iso is None:
            raise PastingError(
                f"cannot paste {nested} and {u.complex.name} at {k}: "
                f"boundaries not isomorphic ({_mismatch(prev.complex, b1, u.complex, b2)})"
            )
        parts.append((u.complex, u.members, {y: x for x, y in iso.items()}))
        nested = f"({nested}#{k}{u.complex.name})"
        b1 = out
    table, maps = _glue(parts)
    cert = _rename(first.certificate, maps[0])
    for u, rename in zip(us[1:], maps[1:]):
        cert = Pasting(k, cert, _rename(u.certificate, rename))
    cx = Complex(name or nested, table)
    # the fold's last step pasted all factors but the last, whose ids then lacked one ``left/``
    left_map = {y[len("left/"):]: y for m in maps[:-1] for y in m.values()}
    return Molecule(cx, cx.whole(), cert, left_map, maps[-1])


def _fold(cert: Atom | Pasting, atom: Callable[[Atom], T], paste: Callable[[Pasting, T, T], T]) -> T:
    """Evaluate a certificate bottom-up, with an explicit stack instead of
    recursion, so a chain's certificate may be as deep as the chain."""
    done: list[T] = []
    stack: list[tuple[Atom | Pasting, bool]] = [(cert, False)]
    while stack:
        node, halves_done = stack.pop()
        if isinstance(node, Atom):
            done.append(atom(node))
        elif halves_done:
            right = done.pop()
            done.append(paste(node, done.pop(), right))
        else:
            stack += [(node, True), (node.right, False), (node.left, False)]
    return done[0]


def _rename(cert: Atom | Pasting, mapping: Mapping[str, str]) -> Atom | Pasting:
    return _fold(cert, lambda a: Atom(mapping[a.top]), lambda p, left, right: Pasting(p.k, left, right))


def cell_to(u: Molecule, v: Molecule, name: str | None = None) -> Molecule:
    """Adjoin a greatest element ``top`` over two boundary-matched spherical molecules.

    The result is an atom one dimension up whose input boundary is a copy of
    ``u`` and output boundary a copy of ``v``.
    """
    n = u.dim
    if v.dim != n:
        raise PastingError("cell_to requires molecules of equal dimension")
    if not spherical(u) or not spherical(v):
        raise PastingError("cell_to requires spherical boundaries")
    iso = _sphere_iso(
        u,
        v,
        n - 1,
        lambda sign, mismatch: PastingError(
            f"cell_to: {sign}-boundaries of {u.complex.name} and {v.complex.name} differ ({mismatch})"
        ),
        "boundary isomorphisms disagree on the shared sphere",
    )
    ident = {y: x for x, y in iso.items()}
    return _cap(u.complex, u.members, v.complex, v.members, ident, n, name)


def _cap(
    lcx: Complex, lo: frozenset[str], rcx: Complex, hi: frozenset[str],
    ident: Mapping[str, str], n: int, name: str | None,
) -> Molecule:
    """The atom ``top`` of dimension n+1 over the n-molecules ``lo`` and ``hi``
    glued along ``ident`` (right id -> left id), checked to have them as its
    input and output boundary; the complex is named ``(lcx=>rcx)`` by default."""
    table, (left_map, right_map) = _glue([(lcx, lo, {}), (rcx, hi, ident)])
    top_cov = [(left_map[x], MINUS) for x in sorted(lo) if lcx.dim_of(x) == n]
    top_cov += [(right_map[y], PLUS) for y in sorted(hi) if rcx.dim_of(y) == n and y not in ident]
    if not top_cov:
        raise PastingError("cell_to would create a cell with no faces")
    table["top"] = (n + 1, top_cov)
    cx = Complex(name or f"({lcx.name}=>{rcx.name})", table)
    # sanity: the new top's boundaries are the two halves
    cl = cx.whole()
    minus, plus = cx._boundary_pair(cl, n)
    if minus != frozenset(left_map.values()):
        raise RuntimeError("cell_to: input boundary does not reproduce the source")
    if plus != frozenset(right_map.values()):
        raise RuntimeError("cell_to: output boundary does not reproduce the target")
    return Molecule(cx, cl, Atom("top"), left_map, right_map)


def compos(u: Molecule, name: str | None = None) -> Molecule:
    """The atom with the same boundary as a spherical molecule.

    By globularity the (n-1)-boundaries of ``u`` meet exactly in its
    (n-2)-boundary, so they are glued along the identity there: no
    recognition, no isomorphism search, and no ``UNKNOWN`` above dimension 3.
    """
    if not spherical(u):
        raise PastingError(f"{u.complex.name}: composite cell needs a spherical boundary")
    n = u.dim
    if n == 0:
        return u
    lo, hi = u.complex._boundary_pair(u.members, n - 1)
    return _cap(u.complex, lo, u.complex, hi, {x: x for x in lo & hi}, n - 1, name)


def substitute(u: Molecule, v_members: frozenset[str], w: Molecule, name: str | None = None) -> Molecule:
    """Replace a spherical submolecule of ``u`` by a boundary-matched molecule.

    The replacement is verified after the fact: the glued poset must load,
    recognise as a molecule, and keep boundaries isomorphic to ``u``'s.
    Failure of any check means ``v_members`` was not substitutable.
    """
    cx = u.complex
    if not v_members <= u.members:
        raise SubstitutionError("substitution site is not inside the molecule")
    if not cx.is_closed(v_members):
        raise SubstitutionError("substitution site is not closed")
    v = recognize(cx, v_members)
    if v is None or v is UNKNOWN:
        raise SubstitutionError("substitution site is not a molecule")
    n = u.dim
    k = v.dim
    if w.dim != k or k > n:
        raise SubstitutionError("site and replacement must share their top dimension")
    if not spherical(v) or not spherical(w):
        raise SubstitutionError("substitution requires spherical boundaries")
    iso = _sphere_iso(  # boundary of w -> boundary of v
        w,
        v,
        k - 1,
        lambda sign, mismatch: SubstitutionError(f"{sign}-boundaries of site and replacement differ ({mismatch})"),
        "substitution boundary isomorphisms disagree",
    )
    v_boundary = cx.boundary(v_members, k - 1)
    interior = v_members - v_boundary
    if any(t in interior for x in u.members - v_members for t, _ in cx.covers(x)):
        # the interior is attached from outside; only a full isomorphic
        # replacement (an identity substitution) can be glued in
        full = unique_iso((w.complex, w.members), (cx, v_members))
        if full is None:
            raise SubstitutionError(
                "context is attached to the interior of the site and the "
                "replacement is not an isomorphic copy"
            )
        iso = full
        v_boundary = v_members
    kept = (u.members - v_members) | v_boundary
    table, (left_map, right_map) = _glue([(cx, kept, {}), (w.complex, w.members, iso)])
    try:
        out = Complex(name or f"{cx.name}[sub]", table)
    except ValueError as exc:
        raise SubstitutionError(f"substitution produced a broken poset: {exc}") from exc
    res = recognize(out, out.whole())
    if res is None:
        raise SubstitutionError("substitution result is not a molecule (site was not a submolecule)")
    if res is UNKNOWN:
        raise SubstitutionError("substitution result not recognised (dimension above 3)")
    for old, new in zip(cx._boundary_pair(u.members, n - 1), out._boundary_pair(out.whole(), n - 1)):
        if unique_iso((cx, old), (out, new)) is None:
            raise SubstitutionError("substitution changed the outer boundary")
    return Molecule(out, out.whole(), res.certificate, left_map, right_map)


# -- recognition ---------------------------------------------------------------


#: What recognition finds for one subset: a certificate, None or UNKNOWN.
_Found = Atom | Pasting | _Unknown | None


def recognize(cx: Complex, members: frozenset[str]):
    """Reconstruct a molecule certificate for a closed subset.

    Returns a handle, ``None`` when the subset is certainly not a molecule, or
    ``UNKNOWN`` when the search is exhausted above dimension 3 (where failure
    is inconclusive).  Complete for subsets of dimension <= 3 in a complex
    whose cells are themselves well-formed; the search tries each cut of a
    frame order once (`_cut`).  A 1-dimensional subset that is a single path
    of arrows is not searched: its certificate pastes the arrows at level 0,
    nested to the right in path order, which is what the search would find;
    one that is no path but whose arrows each have one input and one output
    point is no molecule, and not searched either.  The complex remembers
    the result for every subset searched, and later calls read it back.
    """
    ix = cx._index()
    root = ix.mask(members)
    if ix.closure(root) != root:
        raise ValueError("recognition expects a closed subset")
    maximal = cx.maximal(members)
    if len(maximal) == 1:
        return Molecule(cx, members, Atom(next(iter(maximal))))
    got = _recognized(ix, root)
    return got if got is None or got is UNKNOWN else Molecule(cx, members, got)


#: Marks a mask that is not in an index's recognition memo.
_ABSENT = object()


def _recognized(ix: _Index, root: int) -> _Found:
    """What recognition finds for a closed mask: from the index's memo, or by
    split searches on an explicit stack, each recorded in the memo when it
    finishes.  Each memo entry is read once, so an entry stored meanwhile by
    another thread is never sent into a search that has not started."""
    if not root:
        return None
    memo = ix.recognized
    got = memo.get(root, _ABSENT)
    if got is not _ABSENT:
        return got
    # searches under way, innermost last; each yields a half and is sent its result
    stack = [(root, _split_search(ix, root))]
    got = None
    while stack:
        m, search = stack[-1]
        try:
            half = search.send(got)
        except StopIteration as done:
            got = memo[m] = done.value
            stack.pop()
            continue
        got = memo.get(half, _ABSENT)
        if got is _ABSENT:
            stack.append((half, _split_search(ix, half)))
            got = None  # starts the new search
    return got


def _split_search(ix: _Index, m: int) -> Generator[int, _Found, _Found]:
    """`recognize`'s search on a nonempty closed mask: at each level k from the
    frame dimension up, each cut of the frame order of the high cells is
    tried once, by the one split it allows (`_cut`).

    A mask of dimension <= 1 is not searched when it is a path
    (`_Index.path`): its first cut always splits (level 0, cut 1), so the
    search would find the arrows pasted at level 0, nested to the right in
    path order; that certificate is built directly, and the suffixes are
    neither searched nor remembered.  Nor when it is no path but its arrows
    each have one input and one output point (`_Index.two_ended`): there
    atoms and their pastings at level 0 are paths, so the search finds none."""
    maximal = ix.maximal(m)
    if not maximal & (maximal - 1):
        return Atom(ix.ids[maximal.bit_length() - 1])
    n = ix.dim(m)
    if n <= 1:
        arrows = ix.path(m)
        if arrows is not None:
            cert = Atom(ix.ids[arrows[-1]])
            for a in reversed(arrows[:-1]):
                cert = Pasting(0, Atom(ix.ids[a]), cert)
            return cert
        if ix.two_ended(m):
            return None
    for k in range(max(ix.frame_dimension(maximal), 0), n):
        tail = maximal & ~ix.below(k + 1)
        if not tail & (tail - 1):  # fewer than two high cells
            continue
        highs = ix.frame_order(m, maximal, k)
        if highs is None:
            continue
        bplus = ix.boundary(m, k)[1]
        for x in highs[:-1]:
            tail ^= 1 << x  # the high cells after the cut
            halves = _cut(ix, m, tail, k, bplus)
            lcert = (yield halves[0]) if halves else None
            rcert = (yield halves[1]) if lcert else None
            if lcert and rcert:
                return Pasting(k, lcert, rcert)
    # halves are no higher than m, so below dimension 4 none was UNKNOWN
    return UNKNOWN if n >= 4 else None


def _cut(ix: _Index, m: int, tail: int, k: int, bplus: int) -> tuple[int, int] | None:
    """The k-split of the closed mask ``m`` with the high cells ``tail`` on
    its right and the others on its left, or None; ``bplus`` is ``∂⁺ₖm``.

    No other split has that partition.  Let ``m = L #ₖ R`` with ``tail`` the
    high cells of R, so ``L & R = ∂⁺ₖL = ∂⁻ₖR`` has nothing above level k.
    What of R lies under some of R above level k lies under ``tail``.  The
    rest lies in ``∂⁻ₖR = ∂⁺ₖL``, and so in ``∂⁺ₖm``: at dimension k it has
    no input coface in L or R, and lower it lies under such an element or
    under nothing above level k.  What of ``∂⁺ₖm`` lies in L lies in
    ``∂⁺ₖL``, so in R.  Hence ``R = closure(tail) | ∂⁺ₖm`` and
    ``L = closure(m ∖ R | ∂⁻ₖR)``.  This uses only `_is_split` and the
    definition of a boundary, so it holds on irregular complexes too; the
    candidate from the cells before the cut and ``∂⁻ₖm`` is this split or none.
    """
    right = ix.closure(tail) | bplus
    left = ix.closure(m & ~right | ix.boundary(right, k)[0])
    return (left, right) if _is_split(ix, left, right, k) else None


def _is_split(ix: _Index, left: int, right: int, k: int) -> bool:
    """Whether ``left | right`` is ``left`` pasted to ``right`` along their shared k-boundary."""
    shared = left & right
    return ix.boundary(left, k)[1] == shared and ix.boundary(right, k)[0] == shared


def _enumerate_masks(cx: Complex, max_count: int) -> tuple[dict[int, Atom | Pasting], bool]:
    """The molecules of `enumerate_molecules` as masks of ``cx._index()``,
    each with its certificate, in the order they were found.

    Each set taken off the work stack is pasted, at every level k, first to
    the sets whose input k-boundary is its output one, then second to those
    whose output k-boundary is its input one: one loop over both sides."""
    ix = cx._index()
    pool: dict[int, Atom | Pasting] = {}
    top = cx.dim
    # level k's sets by their input and their output k-boundary
    by_bminus: list[dict[int, list[int]]] = [{} for _ in range(top)]
    by_bplus: list[dict[int, list[int]]] = [{} for _ in range(top)]
    # each set's boundaries live on the work stack only until it is popped
    work: list[tuple[int, list[tuple[int, int]]]] = []
    truncated = False

    def add(members: int, cert: Atom | Pasting) -> None:
        nonlocal truncated
        if members in pool:
            return
        if len(pool) >= max_count:
            truncated = True
            return
        pool[members] = cert
        bds = ix.boundaries(members, top)
        work.append((members, bds))
        for k, (bm, bp) in enumerate(bds):
            by_bminus[k].setdefault(bm, []).append(members)
            by_bplus[k].setdefault(bp, []).append(members)

    for x in cx.elements():
        add(ix.down[ix.pos[x]], Atom(x))
    while work and not truncated:
        m, bds = work.pop()
        cert = pool[m]
        for k, (bm, bp) in enumerate(bds):
            for first, shared, index in ((True, bp, by_bminus[k]), (False, bm, by_bplus[k])):
                for other in list(index.get(shared, ())):
                    if other & m == shared:
                        joined = other | m
                        if joined != m and joined != other:
                            add(joined, Pasting(k, cert, pool[other]) if first else Pasting(k, pool[other], cert))
    return pool, truncated


def enumerate_molecules(cx: Complex, max_count: int = 10_000) -> tuple[list[Molecule], bool]:
    """All molecules inside a complex: atom closures closed under pasting.

    Deduplicated by element set; results sorted by (size, ids).  Returns the
    list and a flag marking whether the budget truncated the enumeration.
    """
    pool, truncated = _enumerate_masks(cx, max_count)
    ix = cx._index()
    found = {ix.members(m): cert for m, cert in pool.items()}
    return [Molecule(cx, m, found[m]) for m in sorted(found, key=_listing_key)], truncated


def _listing_key(members: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    """The order of `enumerate_molecules`' results: by size, then by ids."""
    return len(members), tuple(sorted(members))


def certificate_ok(u: Molecule) -> bool:
    """Verify a handle's certificate against its subset.

    Member sets are derived bottom-up: an atom certifies the closure of its
    top, and a pasting node the union of its halves, provided they meet
    exactly in the matched k-boundary.  The root must certify ``u.members``.
    """
    cx = u.complex
    ix = cx._index()

    def atom(a: Atom) -> int | None:
        return ix.down[ix.pos[a.top]] if a.top in cx else None

    def paste(p: Pasting, left: int | None, right: int | None) -> int | None:
        if left is None or right is None or not _is_split(ix, left, right, p.k):
            return None
        return left | right

    got = _fold(u.certificate, atom, paste)
    return got is not None and ix.members(got) == u.members


def certificate_json(u: Molecule) -> dict:
    """Serialize a certificate tree (atoms and pasting nodes)."""
    return _fold(
        u.certificate,
        lambda a: {"atom": a.top},
        lambda p, left, right: {"paste": {"k": p.k, "left": left, "right": right}},
    )
