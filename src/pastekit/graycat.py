"""Symbolic rewriting layer over a 2-skeleton with non-trivial interchange.

A normal-form 2-cell is a 2-dimensional closed subset together with an
admissible ordering of its cells.  A 3-dimensional composite is a step
sequence: swaps of two adjacent independent cells (interchangers) and
applications of a 3-cell to a contiguous block (generator steps).  The
precedence of a support (its normal order, the rank of each cell, and which
cells reach which) is derived once per complex and kept on its index, where
every step looks it up.  One loop threads generator steps
between canonical interchanger phases: for `interpret`, for
`interpret_atom_in_context`, and for `expr_normalize`, which decides equality
where it applies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .ogp import Complex, SIGNS, _lex_topo
from . import molecules as mol
from .orders import KOrder, is_k_order, k_order, maxd, normal_order_of_subset


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


# -- precedence ----------------------------------------------------------------

# The normal order of a support's cells, the rank of each cell in it, and the
# elements each cell reaches through the support's level-1 frame graph.
Precedence = tuple[tuple[str, ...], dict[str, int], dict[str, frozenset[str]]]


def _precedence(cx: Complex, support: frozenset[str]) -> Precedence:
    """The precedence of a support, kept on the complex's index."""
    ix = cx._index()
    try:
        m = ix.mask(support)
    except KeyError as exc:  # an element outside the complex
        raise ExpressionError(exc.args[0]) from None
    if m not in ix.precedence:
        try:
            order = normal_order_of_subset(cx, support)
        except RuntimeError as exc:  # recognition takes some non-regular complexes for atoms
            raise ExpressionError(f"{cx.name}: {exc}") from exc
        g = maxd(cx, support, 1)
        ix.precedence[m] = order, {x: i for i, x in enumerate(order)}, {x: g.reachable(x) for x in g.high}
    return ix.precedence[m]


def inversion_weight(cx: Complex, nf: TwoCellNF) -> int:
    """Pairs listed against the precedence order of the support."""
    _, rank, _ = _precedence(cx, nf.support)
    _in_support(rank, nf.order)
    w = 0
    for i in range(len(nf.order)):
        for j in range(i + 1, len(nf.order)):
            if rank[nf.order[j]] < rank[nf.order[i]]:
                w += 1
    return w


# -- expression traversal ------------------------------------------------------


def _in_support(rank: Mapping[str, int], cells: Iterable[str]) -> None:
    for x in cells:
        if x not in rank:
            raise ExpressionError(f"{x!r} is not a cell of the support")


def _atom_boundary_cells(cx: Complex, atom: str) -> tuple[tuple[frozenset[str], tuple[str, ...]], ...]:
    """The input and output 2-boundaries of a 3-cell, each with its cells in precedence order."""
    return tuple((bd, _precedence(cx, bd)[0]) for bd in cx._boundary_pair(cx.closure([atom]), 2))


def _swap(cx: Complex, nf: TwoCellNF, step: Interchange) -> TwoCellNF:
    """Validate an interchanger against the precedence of the support and apply it."""
    _, rank, reach = _precedence(cx, nf.support)
    p = step.pos
    if not 0 <= p < len(nf.order) - 1:
        raise ExpressionError(f"interchange position {p} out of range")
    a, b = nf.order[p], nf.order[p + 1]
    if step.pair != (a, b):
        raise ExpressionError(f"interchange pair mismatch at position {p}")
    _in_support(rank, (a, b))
    if b in reach.get(a, ()) or a in reach.get(b, ()):
        raise ExpressionError(f"cells {a!r} and {b!r} are not independent")
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


def apply_step(cx: Complex, nf: TwoCellNF, step: Step) -> TwoCellNF:
    """Validate one step against a normal form and produce the next one."""
    if isinstance(step, Interchange):
        return _swap(cx, nf, step)
    if step.atom not in cx or cx.dim_of(step.atom) != 3:
        raise ExpressionError(f"{step.atom!r} is not a 3-cell")
    (bm, bm_order), (bp, bp_order) = _atom_boundary_cells(cx, step.atom)
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
    """Adjacent swaps sorting ``order`` by rank, top-down.

    From the highest rank down, each cell moves right past the lower-ranked
    cells after it, up to the higher-ranked cells already sorted at the end.
    So each swap exchanges the largest out-of-place pair: the moving cell
    and its right neighbour.
    """
    cur = list(order)
    swaps: list[tuple[int, tuple[str, str]]] = []
    for x in sorted(cur, key=rank.__getitem__, reverse=True):
        p = cur.index(x)
        while p + 1 < len(cur) and rank[cur[p + 1]] < rank[x]:
            swaps.append((p, (x, cur[p + 1])))
            cur[p], cur[p + 1] = cur[p + 1], x
            p += 1
    return swaps


def interchanger_path(
    cx: Complex, support: frozenset[str], frm: Sequence[str], to: Sequence[str]
) -> tuple[Step, ...]:
    """The canonical interchanger composite between two orders on one support.

    Both orders are sorted toward the precedence order (`_to_normal_swaps`),
    and the swaps the two sorts end with in common cancel.  The path runs
    the rest of the first sort forward as inverse interchangers, then the
    rest of the second backward: undoing its swap of ``(a, b)`` interchanges
    ``(b, a)``.  Any two step lists produced this way between the same
    orders are identical.
    """
    frm = tuple(frm)
    to = tuple(to)
    if sorted(frm) != sorted(to):
        raise ExpressionError("orders do not contain the same cells")
    _, rank, reach = _precedence(cx, support)
    for order in (frm, to):
        pos = {x: i for i, x in enumerate(order)}
        if sorted(order) != sorted(rank) or any(
            pos[y] < pos[x] for x in order for y in reach.get(x, ()) if y in pos
        ):
            raise ExpressionError("input orders are not admissible")
    down = _to_normal_swaps(rank, frm)
    back = _to_normal_swaps(rank, to)
    # both tails run to the sorted order; identical trailing swaps cancel
    while down and back and down[-1] == back[-1]:
        down.pop()
        back.pop()
    return tuple(
        [Interchange(p, "inv", pair) for p, pair in down]
        + [Interchange(p, "fwd", (b, a)) for p, (a, b) in reversed(back)]
    )


# -- threading generator steps ---------------------------------------------------


def _thread(
    cx: Complex,
    source: TwoCellNF,
    atoms: Sequence[str],
    target: TwoCellNF,
    context: Sequence[str] | None = None,
) -> tuple[Step, ...]:
    """Apply ``atoms`` in turn from ``source``, then interchange onto ``target``.

    Before each generator step the canonical interchanger path makes the
    atom's input block contiguous: at the latest position the precedence
    allows, before the first cell the block reaches, or, given a
    ``context``, between the cells it lists before and after the atom's id.
    `interchanger_path` refuses to reach that order when the current one
    lacks some of the block's cells, or when no position is admissible:
    then a cell placed after the block reaches it.
    """
    steps: list[Step] = []
    cur = source
    for atom in atoms:
        (_, bm_order), _ = _atom_boundary_cells(cx, atom)
        block = frozenset(bm_order)
        if context is None:
            _, _, reach = _precedence(cx, cur.support)
            rest = tuple(c for c in cur.order if c not in block)
            p = next((i for i, c in enumerate(rest) if any(c in reach.get(b, ()) for b in block)), len(rest))
            pre, post = rest[:p], rest[p:]
        else:
            hole = context.index(atom)
            pre, post = tuple(context[:hole]), tuple(context[hole + 1 :])
        ctx = pre + bm_order + post
        steps.extend(interchanger_path(cx, cur.support, cur.order, ctx))
        app = GenApp(atom, pre, post)
        cur = apply_step(cx, TwoCellNF(cur.support, ctx), app)
        steps.append(app)
    if cur.support != target.support:
        raise ExpressionError("interpretation did not land on the output boundary")
    steps.extend(interchanger_path(cx, target.support, cur.order, target.order))
    return tuple(steps)


def _interpretation(
    u: mol.Molecule, atoms: Sequence[str], context: Sequence[str] | None = None
) -> GrayExpr3:
    """Thread ``atoms`` between the canonically ordered 2-boundaries of ``u``."""
    cx = u.complex
    bm, bp = cx._boundary_pair(u.members, 2)
    source = TwoCellNF(bm, _precedence(cx, bm)[0])
    target = TwoCellNF(bp, _precedence(cx, bp)[0])
    return GrayExpr3(cx, source, _thread(cx, source, atoms, target, context))


# -- interpretation of 3-molecules -----------------------------------------------


def interpret(u: mol.Molecule, order: KOrder | None = None) -> GrayExpr3:
    """The composite assigned to a 3-molecule along a 2-order.

    Source and target are the canonically ordered input and output
    boundaries; different 2-orders give composites equal under
    `expr_equal`.
    """
    if u.dim != 3:
        raise ExpressionError("interpretation applies to 3-dimensional molecules")
    if order is None:
        order = k_order(u, 2)
        if order is None:
            raise ExpressionError("no admissible 2-order: frame graph loops")
    elif order.k != 2 or not is_k_order(u, 2, order.sequence):
        raise ExpressionError("not a k-order for this molecule")
    return _interpretation(u, order.sequence)


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
    if context is not None and tops[0] not in context:
        raise ExpressionError("the context must mention the 3-cell once")
    return _interpretation(u, tops, context)


# -- normal forms of expressions ---------------------------------------------------


def _normalized(e: GrayExpr3) -> GrayExpr3 | None:
    """``e`` rebuilt in canonical form, or None when it falls outside the
    canonical fragment: an atom applied twice, atoms whose level-2 frame
    graph loops, or a rethreading that fails (the source order of ``e`` is
    not admissible, say, which `walk` does not check)."""
    nfs = walk(e)
    source, target = nfs[0], nfs[-1]
    atoms = [s.atom for s in e.steps if isinstance(s, GenApp)]
    cx = e.complex
    ids = frozenset(atoms)
    if len(ids) != len(atoms):
        return None
    region = frozenset().union(*[nf.support for nf in nfs], *[cx.closure([a]) for a in atoms])
    g = maxd(cx, region, 2)
    ordered = _lex_topo({a: tuple(sorted(g.reachable(a) & (ids - {a}))) for a in atoms})
    if len(ordered) < len(atoms):
        return None
    try:
        return GrayExpr3(cx, source, _thread(cx, source, ordered, target))
    except ExpressionError:
        return None


def expr_normalize(e: GrayExpr3) -> GrayExpr3:
    """Rebuild an expression in canonical form.

    Generator steps are sorted into the canonical admissible order of their
    atoms (frame precedence first, then ids) and rethreaded with canonical
    interchanger phases; pure interchanger composites collapse to the single
    canonical path.  Complete for composites produced by `interpret`; other
    shapes are returned unchanged when rebuilding fails.
    """
    got = _normalized(e)
    return e if got is None else got


def expr_equal(e1: GrayExpr3, e2: GrayExpr3) -> bool | mol._Unknown:
    """Equality of composites modulo interchanger coherence and independent
    reordering of generator steps.

    Composites with different sources differ.  Otherwise the answer is
    whether their normal forms agree, and `molecules.UNKNOWN` (falsy) when
    either has none (`expr_normalize` returns it unchanged): then equal
    composites may have different step lists.
    """
    # a normal form keeps its expression's endpoints, and equal steps from
    # equal sources reach equal targets
    if nf_source(e1) != nf_source(e2):
        return False
    n1, n2 = _normalized(e1), _normalized(e2)
    if n1 is None or n2 is None:
        return mol.UNKNOWN
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
    for sign, bd in zip(SIGNS, cx._boundary_pair(u.members, 3)):
        bd = mol.recognize(cx, bd)
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
