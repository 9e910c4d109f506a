"""Molecules: composable diagram shapes inside oriented graded posets.

A molecule handle pairs a closed subset with a certificate: a tree whose
leaves are atoms, named by the id of their greatest element, and whose nodes
paste two subtrees along a matching k-boundary.  Certificates hold atom ids
only; the member set of a node is derived from them (the closure of an
atom's top, the union of a pasting's halves).  Constructors (`globe`,
`paste`, `cell_to`, `compos`, `substitute`) build certificates as they go;
`recognize` rebuilds one from a bare closed subset by exhaustive split
search, which is complete up to dimension 3.

`paste`, `cell_to` and `substitute` share one gluing step: keep a subset of
each side, identify right elements with left ones along a boundary
isomorphism, and rename the rest ``left/x`` and ``right/y``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, TypeVar

from .ogp import Complex, MINUS, PLUS, SIGNS, spherical_boundary

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


@dataclass(frozen=True)
class Pasting:
    """Certificate node: ``left`` pasted to ``right`` along their k-boundary.

    The halves are certificates over the same atom ids, not molecule
    handles; their member sets are derived by `certificate_ok`.
    """

    k: int
    left: "Atom | Pasting"
    right: "Atom | Pasting"


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

    def atoms(self) -> tuple[str, ...]:
        """Ids of the maximal elements (the cells pasted together)."""
        return tuple(sorted(self.complex.maximal(self.members)))


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
    """Handle for the full complex, recognising the certificate on the fly."""
    res = recognize(cx, cx.whole())
    if res is None or res is UNKNOWN:
        raise ValueError(f"{cx.name} is not (recognisably) a molecule")
    return res


def atom_handle(cx: Complex, top: str) -> Molecule:
    return Molecule(cx, cx.closure([top]), Atom(top))


def globe_molecule(n: int) -> Molecule:
    cx = globe(n)
    return atom_handle(cx, str(n))


def interval_chain(n: int) -> Molecule:
    """The 1-molecule with n arrows pasted end to end."""
    if n < 1:
        raise ValueError("interval chains need at least one arrow")
    u = globe_molecule(1)
    for _ in range(n - 1):
        u = paste(u, globe_molecule(1), 0)
    return u


def u_cell(n: int, m: int) -> Molecule:
    """The 2-atom with n input wires and m output wires."""
    return cell_to(interval_chain(n), interval_chain(m))


# -- isomorphism --------------------------------------------------------------


def _fingerprints(cx: Complex, members: frozenset[str]) -> dict[str, tuple]:
    """Structural invariants refined until the partition they induce is stable.

    Each round refines the last, so an unchanged class count means an
    unchanged partition.  Isomorphic subsets get equal codes round for round.
    """
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


def unique_iso(
    u: Molecule | tuple[Complex, frozenset[str]],
    v: Molecule | tuple[Complex, frozenset[str]],
) -> dict[str, str] | None:
    """The isomorphism between two molecules, if one exists.

    Molecules of regular complexes are isomorphic in at most one way; a
    second distinct isomorphism found by the search is reported as an
    internal consistency error.
    """
    acx, a = (u.complex, u.members) if isinstance(u, Molecule) else u
    bcx, b = (v.complex, v.members) if isinstance(v, Molecule) else v
    if len(a) != len(b):
        return None
    fpa = _fingerprints(acx, a)
    fpb = _fingerprints(bcx, b)
    if sorted(fpa.values()) != sorted(fpb.values()):
        return None
    by_fp: dict[tuple, list[str]] = {}
    for y in sorted(b):
        by_fp.setdefault(fpb[y], []).append(y)
    # match from the top dimension down, so each element's cofaces are
    # matched before it
    order = sorted(a, key=lambda x: (-acx.dim_of(x), x))
    found: list[dict[str, str]] = []

    def fits(x: str, y: str, fwd: dict[str, str]) -> bool:
        # every signed cover is verified once, when its lower element is matched
        return {(fwd[z], s) for z, s in acx.cofaces(x) if z in a} == {
            (z, s) for z, s in bcx.cofaces(y) if z in b
        }

    def extend(i: int, fwd: dict[str, str], used: set[str]) -> bool:
        """Extend ``fwd`` from ``order[i]``; True once a second isomorphism is found."""
        if i == len(order):
            found.append(dict(fwd))
            return len(found) > 1
        x = order[i]
        for y in by_fp.get(fpa[x], ()):
            if y in used or not fits(x, y, fwd):
                continue
            fwd[x] = y
            used.add(y)
            if extend(i + 1, fwd, used):
                return True
            del fwd[x]
            used.discard(y)
        return False

    extend(0, {}, set())
    if not found:
        return None
    if len(found) > 1:
        raise RuntimeError(
            f"molecule isomorphism is not unique between {acx.name} and {bcx.name}; "
            "inputs are not regular molecules"
        )
    return found[0]


# -- gluing constructors -------------------------------------------------------


def _glue(
    lcx: Complex, lkeep: frozenset[str], rcx: Complex, rkeep: frozenset[str], ident: Mapping[str, str]
) -> tuple[dict, dict[str, str], dict[str, str]]:
    """The element table of two kept subsets glued along ``ident`` (right id -> left id).

    Left elements become ``left/x``; right elements become ``right/y`` unless
    ``ident`` identifies them with a left element, whose id they take.  Each
    element keeps its covers, in order, that lie inside its kept subset.
    Returns the table and the two origin maps.
    """
    left_map = {x: f"left/{x}" for x in lkeep}
    right_map = {y: f"left/{ident[y]}" if y in ident else f"right/{y}" for y in rkeep}
    table = {}
    for cx, keep, rename, skip in ((lcx, lkeep, left_map, {}), (rcx, rkeep, right_map, ident)):
        for x in keep:
            if x not in skip:
                table[rename[x]] = (cx.dim_of(x), [(rename[t], s) for t, s in cx.covers(x) if t in keep])
    return table, left_map, right_map


def _sphere_iso(
    u: Molecule, v: Molecule, k: int, differ: Callable[[str], Exception], disagree: str
) -> dict[str, str]:
    """The isomorphism of both signed k-boundaries of ``u`` onto those of ``v``.

    Raises ``differ(sign)`` when a pair of boundaries is not isomorphic, and
    ``RuntimeError(disagree)`` when the two halves disagree where they meet.
    """
    iso: dict[str, str] = {}
    for sign in SIGNS:
        part = unique_iso((u.complex, u.boundary(k, sign)), (v.complex, v.boundary(k, sign)))
        if part is None:
            raise differ(sign)
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
    if k < 0:
        raise PastingError("pasting dimension must be >= 0")
    b1 = u1.boundary(k, PLUS)
    b2 = u2.boundary(k, MINUS)
    iso = unique_iso((u1.complex, b1), (u2.complex, b2))
    if iso is None:
        d1 = sorted(u1.complex.dim_of(x) for x in b1)
        d2 = sorted(u2.complex.dim_of(x) for x in b2)
        stratum = next(
            (n for n in range(max(len(d1), len(d2))) if n >= len(d1) or n >= len(d2) or d1[n] != d2[n]),
            None,
        )
        raise PastingError(
            f"cannot paste {u1.complex.name} and {u2.complex.name} at {k}: "
            f"boundaries not isomorphic (first mismatch in stratum {stratum}, "
            f"sizes {len(b1)} vs {len(b2)})"
        )
    table, left_map, right_map = _glue(
        u1.complex, u1.members, u2.complex, u2.members, {y: x for x, y in iso.items()}
    )
    cx = Complex(name or f"({u1.complex.name}#{k}{u2.complex.name})", table)
    cert = Pasting(k, _rename(u1.certificate, left_map), _rename(u2.certificate, right_map))
    return Molecule(cx, cx.whole(), cert, left_map, right_map)


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


def cell_to(u: Molecule, v: Molecule, name: str | None = None, top: str = "top") -> Molecule:
    """Adjoin a greatest element over two boundary-matched spherical molecules.

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
        lambda sign: PastingError(f"cell_to: {sign}-boundaries of {u.complex.name} and {v.complex.name} differ"),
        "boundary isomorphisms disagree on the shared sphere",
    )
    ident = {y: x for x, y in iso.items()}
    table, left_map, right_map = _glue(u.complex, u.members, v.complex, v.members, ident)
    top_cov = [(left_map[x], MINUS) for x in sorted(u.members) if u.complex.dim_of(x) == n]
    top_cov += [
        (right_map[y], PLUS)
        for y in sorted(v.members)
        if v.complex.dim_of(y) == n and y not in ident
    ]
    if not top_cov:
        raise PastingError("cell_to would create a cell with no faces")
    table[top] = (n + 1, top_cov)
    cx = Complex(name or f"({u.complex.name}=>{v.complex.name})", table)
    # sanity: the new top's boundaries are the two halves
    cl = cx.whole()
    if cx.boundary(cl, n, MINUS) != frozenset(left_map.values()):
        raise RuntimeError("cell_to: input boundary does not reproduce the source")
    if cx.boundary(cl, n, PLUS) != frozenset(right_map.values()):
        raise RuntimeError("cell_to: output boundary does not reproduce the target")
    return Molecule(cx, cl, Atom(top), left_map, right_map)


def compos(u: Molecule, name: str | None = None) -> Molecule:
    """The atom with the same boundary as a spherical molecule."""
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
        lambda sign: SubstitutionError(f"{sign}-boundaries of site and replacement differ"),
        "substitution boundary isomorphisms disagree",
    )
    v_boundary = cx.boundary(v_members, k - 1, MINUS) | cx.boundary(v_members, k - 1, PLUS)
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
        interior = frozenset()
        v_boundary = v_members
    kept = (u.members - v_members) | v_boundary
    table, left_map, right_map = _glue(cx, kept, w.complex, w.members, iso)
    try:
        out = Complex(name or f"{cx.name}[sub]", table)
    except ValueError as exc:
        raise SubstitutionError(f"substitution produced a broken poset: {exc}") from exc
    res = recognize(out, out.whole())
    if res is None:
        raise SubstitutionError("substitution result is not a molecule (site was not a submolecule)")
    if res is UNKNOWN:
        raise SubstitutionError("substitution result not recognised (dimension above 3)")
    for sign in SIGNS:
        old = cx.boundary(u.members, n - 1, sign)
        new = out.boundary(out.whole(), n - 1, sign)
        if unique_iso((cx, old), (out, new)) is None:
            raise SubstitutionError("substitution changed the outer boundary")
    return Molecule(out, out.whole(), res.certificate, left_map, right_map)


# -- recognition ---------------------------------------------------------------


def recognize(cx: Complex, members: frozenset[str], _memo: dict | None = None):
    """Reconstruct a molecule certificate for a closed subset.

    Returns a handle, ``None`` when the subset is certainly not a molecule,
    or ``UNKNOWN`` when the search is exhausted above dimension 3 (where
    failure is inconclusive).  Complete for subsets of dimension <= 3 in a
    complex whose cells are themselves well-formed.
    """
    from .orders import _lex_topo, frame_dimension, maxd

    if _memo is None:
        _memo = {}
    if members in _memo:
        return _memo[members]
    if not members:
        return None
    if not cx.is_closed(members):
        raise ValueError("recognition expects a closed subset")
    maximal = cx.maximal(members)
    if len(maximal) == 1:
        res = Molecule(cx, members, Atom(next(iter(maximal))))
        _memo[members] = res
        return res
    n = cx.dim_of_subset(members)
    inconclusive = n >= 4
    frd = frame_dimension(cx, members)
    for k in range(max(frd, 0), n):
        order = _lex_topo(maxd(cx, members, k).adjacency)
        if order is None:
            continue
        highs = [x for x in order if x in maximal and cx.dim_of(x) > k]
        if len(highs) < 2:
            continue
        bplus = cx.boundary(members, k, PLUS)
        bminus = cx.boundary(members, k, MINUS)
        for i in range(1, len(highs)):
            for u1_members, u2_members in _split_candidates(cx, members, highs, i, k, bminus, bplus):
                if not u1_members or not u2_members:
                    continue
                if u1_members == members or u2_members == members:
                    continue
                if not _is_split(cx, members, u1_members, u2_members, k):
                    continue
                left = recognize(cx, u1_members, _memo)
                if left is None or left is UNKNOWN:
                    inconclusive = inconclusive or left is UNKNOWN
                    continue
                right = recognize(cx, u2_members, _memo)
                if right is None or right is UNKNOWN:
                    inconclusive = inconclusive or right is UNKNOWN
                    continue
                res = Molecule(cx, members, Pasting(k, left.certificate, right.certificate))
                _memo[members] = res
                return res
    res = UNKNOWN if inconclusive else None
    _memo[members] = res
    return res


def _is_split(cx: Complex, members: frozenset[str], left: frozenset[str], right: frozenset[str], k: int) -> bool:
    """Whether ``members`` is ``left`` pasted to ``right`` along their shared k-boundary."""
    if left | right != members:
        return False
    shared = left & right
    return cx.boundary(left, k, PLUS) == shared and cx.boundary(right, k, MINUS) == shared


def _split_candidates(cx, members, highs, i, k, bminus, bplus):
    suffix = cx.closure(highs[i:]) | bplus
    yield cx.closure(members - (suffix - cx.boundary(suffix, k, MINUS))), suffix
    prefix = cx.closure(highs[:i]) | bminus
    yield prefix, cx.closure(members - (prefix - cx.boundary(prefix, k, PLUS)))


def enumerate_molecules(cx: Complex, max_count: int = 10_000) -> tuple[list[Molecule], bool]:
    """All molecules inside a complex: atom closures closed under pasting.

    Deduplicated by element set; results sorted by (size, ids).  Returns the
    list and a flag marking whether the budget truncated the enumeration.
    """
    pool: dict[frozenset[str], Atom | Pasting] = {}
    by_bminus: dict[tuple[int, frozenset[str]], list[frozenset[str]]] = {}
    by_bplus: dict[tuple[int, frozenset[str]], list[frozenset[str]]] = {}
    top = cx.dim

    def boundaries(m: frozenset[str]):
        for k in range(top):
            yield k, cx.boundary(m, k, MINUS), cx.boundary(m, k, PLUS)

    work: list[frozenset[str]] = []
    truncated = False

    def add(members: frozenset[str], cert: Atom | Pasting) -> None:
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
        add(cx.closure([x]), Atom(x))
    while work and not truncated:
        m = work.pop()
        cert = pool[m]
        for k, bm, bp in boundaries(m):
            for other in list(by_bminus.get((k, bp), ())):
                if other & m == bp:
                    joined = other | m
                    if joined != m and joined != other:
                        add(joined, Pasting(k, cert, pool[other]))
            for other in list(by_bplus.get((k, bm), ())):
                if other & m == bm:
                    joined = other | m
                    if joined != m and joined != other:
                        add(joined, Pasting(k, pool[other], cert))
    out = sorted(pool, key=lambda m: (len(m), tuple(sorted(m))))
    return [Molecule(cx, m, pool[m]) for m in out], truncated


def certificate_ok(u: Molecule) -> bool:
    """Verify a handle's certificate against its subset.

    Member sets are derived bottom-up: an atom certifies the closure of its
    top, and a pasting node the union of its halves, provided they meet
    exactly in the matched k-boundary.  The root must certify ``u.members``.
    """
    cx = u.complex

    def atom(a: Atom) -> frozenset[str] | None:
        return cx.closure([a.top]) if a.top in cx else None

    def paste(p: Pasting, left: frozenset[str] | None, right: frozenset[str] | None) -> frozenset[str] | None:
        if left is None or right is None or not _is_split(cx, left | right, left, right, p.k):
            return None
        return left | right

    return _fold(u.certificate, atom, paste) == u.members


def certificate_json(u: Molecule) -> dict:
    """Serialize a certificate tree (atoms and pasting nodes)."""
    return _fold(
        u.certificate,
        lambda a: {"atom": a.top},
        lambda p, left, right: {"paste": {"k": p.k, "left": left, "right": right}},
    )
