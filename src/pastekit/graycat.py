"""Symbolic rewriting layer over a 2-skeleton with non-trivial interchange.

A normal-form 2-cell is a 2-dimensional closed subset together with an
admissible ordering of its cells.  A 3-dimensional composite is a step
sequence: swaps of two adjacent independent cells (interchangers) and
applications of a 3-cell to a contiguous block (generator steps).  The
composite assigned to a 3-molecule threads generator steps between the two
canonical interchanger phases, and equality of composites is decided by
rebuilding both to a canonical step list.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ogp import Complex, MINUS, PLUS
from . import molecules as mol
from .orders import KOrder, frame_decomposition, k_order, maxd, normal_order_of_subset


class ExpressionError(ValueError):
    pass


@dataclass(frozen=True)
class TwoCellNF:
    """A 2-dimensional closed subset with an admissible cell order."""

    support: frozenset[str]
    order: tuple[str, ...]


@dataclass(frozen=True)
class Interchange:
    """Swap the cells at ``pos`` and ``pos + 1``.

    ``fwd`` steps move away from the canonical order (each raises the
    inversion weight by one); ``inv`` steps move back toward it.  The swapped
    pair is recorded as it appears before the step.
    """

    pos: int
    direction: str  # "fwd" | "inv"
    pair: tuple[str, str]


@dataclass(frozen=True)
class GenApp:
    """Apply a 3-cell whose input block sits between ``pre`` and ``post``."""

    atom: str
    pre: tuple[str, ...]
    post: tuple[str, ...]


Step = Interchange | GenApp


@dataclass(frozen=True, eq=False)
class GrayExpr3:
    complex: Complex
    source: TwoCellNF
    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)


# -- precedence utilities ------------------------------------------------------


def _rank(cx: Complex, support: frozenset[str]) -> dict[str, int]:
    order = normal_order_of_subset(cx, support)
    return {x: i for i, x in enumerate(order)}


def inversion_weight(cx: Complex, nf: TwoCellNF) -> int:
    """Pairs listed against the precedence order of the support."""
    rank = _rank(cx, nf.support)
    w = 0
    for i in range(len(nf.order)):
        for j in range(i + 1, len(nf.order)):
            if rank[nf.order[j]] < rank[nf.order[i]]:
                w += 1
    return w


def _cell_reach(cx: Complex, support: frozenset[str]) -> dict[str, frozenset[str]]:
    """Reachability between maximal cells through the level-1 frame graph."""
    g = maxd(cx, support, 1)
    return {x: g.reachable(x) for x in g.high}


def _independent(reach: dict[str, frozenset[str]], a: str, b: str) -> bool:
    return b not in reach.get(a, ()) and a not in reach.get(b, ())


def _is_1_order(cx: Complex, support: frozenset[str], order: Sequence[str]) -> bool:
    cells = sorted(x for x in cx.maximal(support) if cx.dim_of(x) == 2)
    if sorted(order) != cells:
        return False
    reach = _cell_reach(cx, support)
    pos = {x: i for i, x in enumerate(order)}
    return not any(
        pos[y] < pos[x] for x in order for y in reach.get(x, ()) if y in pos
    )


# -- expression traversal ------------------------------------------------------


def _atom_boundary_cells(cx: Complex, atom: str, sign: str) -> tuple[frozenset[str], tuple[str, ...]]:
    cl = cx.closure([atom])
    bd = cx.boundary(cl, 2, sign)
    return bd, normal_order_of_subset(cx, bd)


def apply_step(cx: Complex, nf: TwoCellNF, step: Step) -> TwoCellNF:
    """Validate one step against a normal form and produce the next one."""
    if isinstance(step, Interchange):
        p = step.pos
        if not 0 <= p < len(nf.order) - 1:
            raise ExpressionError(f"interchange position {p} out of range")
        a, b = nf.order[p], nf.order[p + 1]
        if step.pair != (a, b):
            raise ExpressionError(f"interchange pair mismatch at position {p}")
        reach = _cell_reach(cx, nf.support)
        if not _independent(reach, a, b):
            raise ExpressionError(f"cells {a!r} and {b!r} are not independent")
        rank = _rank(cx, nf.support)
        raises_weight = rank[a] < rank[b]
        if step.direction not in ("fwd", "inv"):
            raise ExpressionError(f"unknown interchange direction {step.direction!r}")
        if raises_weight != (step.direction == "fwd"):
            raise ExpressionError(
                f"interchange at position {p} mislabelled: swapping {a!r}, {b!r} "
                f"{'raises' if raises_weight else 'lowers'} the inversion weight"
            )
        new_order = nf.order[:p] + (b, a) + nf.order[p + 2 :]
        return TwoCellNF(nf.support, new_order)
    if cx.dim_of(step.atom) != 3:
        raise ExpressionError(f"{step.atom!r} is not a 3-cell")
    bm, bm_order = _atom_boundary_cells(cx, step.atom, MINUS)
    bp, bp_order = _atom_boundary_cells(cx, step.atom, PLUS)
    want = step.pre + bm_order + step.post
    if nf.order != want:
        raise ExpressionError(
            f"generator step on {step.atom!r} expects order {want}, found {nf.order}"
        )
    if not bm <= nf.support:
        raise ExpressionError(f"input boundary of {step.atom!r} not inside the support")
    rim = cx.boundary(bm, 1, None)
    support = (nf.support - (bm - rim)) | bp
    return TwoCellNF(support, step.pre + bp_order + step.post)


def walk(e: GrayExpr3) -> list[TwoCellNF]:
    """All normal forms along an expression, validating every step."""
    nfs = [e.source]
    for step in e.steps:
        nfs.append(apply_step(e.complex, nfs[-1], step))
    return nfs


def nf_source(e: GrayExpr3) -> TwoCellNF:
    return e.source


def nf_target(e: GrayExpr3) -> TwoCellNF:
    return walk(e)[-1]


# -- canonical interchanger paths ------------------------------------------------


def _to_normal_swaps(rank: dict[str, int], order: tuple[str, ...]) -> list[tuple[int, tuple[str, str]]]:
    """Adjacent swaps sorting ``order`` by rank, largest out-of-place pair first."""
    cur = list(order)
    swaps: list[tuple[int, tuple[str, str]]] = []
    while True:
        candidates = [
            p for p in range(len(cur) - 1) if rank[cur[p + 1]] < rank[cur[p]]
        ]
        if not candidates:
            break
        p = max(
            candidates,
            key=lambda q: (max(rank[cur[q]], rank[cur[q + 1]]), min(rank[cur[q]], rank[cur[q + 1]])),
        )
        swaps.append((p, (cur[p], cur[p + 1])))
        cur[p], cur[p + 1] = cur[p + 1], cur[p]
    return swaps


def interchanger_path(
    cx: Complex, support: frozenset[str], frm: Sequence[str], to: Sequence[str]
) -> tuple[Step, ...]:
    """The canonical interchanger composite between two orders on one support.

    Both orders are sorted toward the precedence order; the second path is
    then reversed.  Any two step lists produced this way between the same
    orders are identical.
    """
    frm = tuple(frm)
    to = tuple(to)
    if sorted(frm) != sorted(to):
        raise ExpressionError("orders do not contain the same cells")
    if not _is_1_order(cx, support, frm) or not _is_1_order(cx, support, to):
        raise ExpressionError("input orders are not admissible")
    rank = _rank(cx, support)
    down = _to_normal_swaps(rank, frm)
    back = _to_normal_swaps(rank, to)
    # both tails run to the sorted order; identical trailing swaps cancel
    while down and back and down[-1] == back[-1]:
        down.pop()
        back.pop()
    steps: list[Step] = [Interchange(p, "inv", pair) for p, pair in down]
    cur = list(frm)
    for p, _ in down:
        cur[p], cur[p + 1] = cur[p + 1], cur[p]
    for p, pair in reversed(back):
        a, b = cur[p], cur[p + 1]
        steps.append(Interchange(p, "fwd", (a, b)))
        cur[p], cur[p + 1] = cur[p + 1], cur[p]
    assert tuple(cur) == to
    return tuple(steps)


# -- interpretation of 3-molecules -----------------------------------------------


def _hole_position(
    cx: Complex, support: frozenset[str], order: tuple[str, ...], block: frozenset[str]
) -> tuple[tuple[str, ...], int]:
    """Latest position where a contracted block may sit among the other cells."""
    untouched = tuple(c for c in order if c not in block)
    reach = _cell_reach(cx, support)
    p_min = 0
    p_max = len(untouched)
    for idx, c in enumerate(untouched):
        if any(b in reach.get(c, ()) for b in block):
            p_min = max(p_min, idx + 1)
        if any(c in reach.get(b, ()) for b in block):
            p_max = min(p_max, idx)
    if p_min > p_max:
        raise ExpressionError("block cannot be made contiguous in any admissible order")
    return untouched, p_max


def _gen_step(cx: Complex, cur: TwoCellNF, atom: str) -> tuple[tuple[Step, ...], TwoCellNF]:
    bm, bm_order = _atom_boundary_cells(cx, atom, MINUS)
    block = frozenset(bm_order)
    if not block <= set(cur.order):
        raise ExpressionError(f"input cells of {atom!r} are not available")
    untouched, p = _hole_position(cx, cur.support, cur.order, block)
    ctx = untouched[:p] + bm_order + untouched[p:]
    chi = interchanger_path(cx, cur.support, cur.order, ctx)
    nf = TwoCellNF(cur.support, ctx)
    app = GenApp(atom, untouched[:p], untouched[p:])
    out = apply_step(cx, nf, app)
    return chi + (app,), out


def interpret(u: mol.Molecule, order: KOrder | None = None) -> GrayExpr3:
    """The composite assigned to a 3-molecule along a 2-order.

    Source and target are the canonically ordered input and output
    boundaries; different 2-orders give composites equal under
    `expr_equal`.
    """
    cx = u.complex
    if u.dim != 3:
        raise ExpressionError("interpretation applies to 3-dimensional molecules")
    if order is None:
        order = k_order(u, 2)
        if order is None:
            raise ExpressionError("no admissible 2-order: frame graph loops")
    frame_decomposition(u, 2, order)  # raises when the order cannot split u
    bm = cx.boundary(u.members, 2, MINUS)
    cur = TwoCellNF(bm, normal_order_of_subset(cx, bm))
    source = cur
    steps: list[Step] = []
    for atom in order.sequence:
        emitted, cur = _gen_step(cx, cur, atom)
        steps.extend(emitted)
    bp = cx.boundary(u.members, 2, PLUS)
    if cur.support != bp:
        raise ExpressionError("interpretation did not land on the output boundary")
    steps.extend(interchanger_path(cx, bp, cur.order, normal_order_of_subset(cx, bp)))
    return GrayExpr3(cx, source, tuple(steps))


def interpret_atom_in_context(
    u: mol.Molecule, context: Sequence[str] | None = None
) -> GrayExpr3:
    """Interpretation of a molecule with a single 3-cell.

    ``context`` optionally fixes the order of the surrounding cells, with
    the 3-cell's id standing for the contracted block; different contexts
    give equal composites.  The result has the three-phase shape: a run of
    forward interchangers, one generator step, a run of inverse ones.
    """
    cx = u.complex
    tops = [x for x in u.members if cx.dim_of(x) == 3]
    if u.dim != 3 or len(tops) != 1:
        raise ExpressionError("expected a molecule with exactly one 3-cell")
    atom = tops[0]
    bm = cx.boundary(u.members, 2, MINUS)
    cur = TwoCellNF(bm, normal_order_of_subset(cx, bm))
    source = cur
    steps: list[Step]
    if context is None:
        emitted, cur = _gen_step(cx, cur, atom)
        steps = list(emitted)
    else:
        if atom not in context:
            raise ExpressionError("the context must mention the 3-cell once")
        abm, abm_order = _atom_boundary_cells(cx, atom, MINUS)
        seq: list[str] = []
        for c in context:
            seq.extend(abm_order if c == atom else (c,))
        ctx = tuple(seq)
        chi = interchanger_path(cx, cur.support, cur.order, ctx)
        hole = context.index(atom)
        app = GenApp(atom, tuple(context[:hole]), tuple(context[hole + 1 :]))
        cur = apply_step(cx, TwoCellNF(cur.support, ctx), app)
        steps = list(chi) + [app]
    bp = cx.boundary(u.members, 2, PLUS)
    steps.extend(interchanger_path(cx, bp, cur.order, normal_order_of_subset(cx, bp)))
    return GrayExpr3(cx, source, tuple(steps))


# -- normal forms of expressions ---------------------------------------------------


def expr_normalize(e: GrayExpr3) -> GrayExpr3:
    """Rebuild an expression in canonical form.

    Generator steps are sorted into the canonical admissible order of their
    atoms (frame precedence first, then ids) and rethreaded with canonical
    interchanger phases; pure interchanger composites collapse to the single
    canonical path.  Complete for composites produced by `interpret`; other
    shapes are returned unchanged when rebuilding fails.
    """
    nfs = walk(e)
    source, target = nfs[0], nfs[-1]
    atoms = [s.atom for s in e.steps if isinstance(s, GenApp)]
    cx = e.complex
    if not atoms:
        return GrayExpr3(cx, source, interchanger_path(cx, source.support, source.order, target.order))
    region = frozenset().union(*[nf.support for nf in nfs], *[cx.closure([a]) for a in atoms])
    g = maxd(cx, region, 2)
    reach = {a: g.reachable(a) for a in atoms}
    remaining = sorted(atoms)
    if len(set(atoms)) != len(atoms):
        return e  # repeated applications fall outside the canonical fragment
    ordered: list[str] = []
    while remaining:
        ready = [a for a in remaining if not any(a in reach[b] for b in remaining if b != a)]
        if not ready:
            return e
        pick = min(ready)
        ordered.append(pick)
        remaining.remove(pick)
    try:
        cur = source
        steps: list[Step] = []
        for atom in ordered:
            emitted, cur = _gen_step(cx, cur, atom)
            steps.extend(emitted)
        if cur.support != target.support:
            return e
        steps.extend(interchanger_path(cx, target.support, cur.order, target.order))
        return GrayExpr3(cx, source, tuple(steps))
    except ExpressionError:
        return e


def expr_equal(e1: GrayExpr3, e2: GrayExpr3) -> bool:
    """Equality of composites modulo interchanger coherence and independent
    reordering of generator steps."""
    if nf_source(e1) != nf_source(e2) or nf_target(e1) != nf_target(e2):
        return False
    n1, n2 = expr_normalize(e1), expr_normalize(e2)
    return n1.steps == n2.steps


@dataclass(frozen=True, eq=False)
class Equation:
    """A parallel pair of composites imposed, never solved, by a 4-cell."""

    lhs: GrayExpr3
    rhs: GrayExpr3


def four_cell_equation(u: mol.Molecule) -> Equation:
    """The equation a 4-dimensional atom imposes between the interpretations
    of its two boundaries."""
    cx = u.complex
    tops = [x for x in u.members if cx.dim_of(x) == 4]
    if u.dim != 4 or len(tops) != 1:
        raise ExpressionError("expected a molecule with exactly one 4-cell")
    sides = []
    for sign in (MINUS, PLUS):
        bd = mol.recognize(cx, cx.boundary(u.members, 3, sign))
        if bd is None or bd is mol.UNKNOWN:
            raise ExpressionError(f"{sign}3-boundary did not recognise as a molecule")
        sides.append(interpret(bd))
    eq = Equation(*sides)
    if nf_source(eq.lhs) != nf_source(eq.rhs) or nf_target(eq.lhs) != nf_target(eq.rhs):
        raise ExpressionError("boundary interpretations are not parallel")
    return eq


def format_expr(e: GrayExpr3, names: dict[str, str] | None = None) -> str:
    """Human-readable listing: interchanger steps by phase, generators as c[-]."""
    names = names or {}

    def nm(x: str) -> str:
        return names.get(x, x)

    parts = []
    for step in e.steps:
        if isinstance(step, Interchange):
            mark = "χ⁻" if step.direction == "fwd" else "χ⁺"
            parts.append(f"{mark}[{nm(step.pair[0])},{nm(step.pair[1])}]")
        else:
            parts.append(f"c[{nm(step.atom)}]")
    return " ; ".join(parts) if parts else "(unit)"
