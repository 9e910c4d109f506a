"""Presented monoidal theories: permutations, braiding words, tensor products.

Presentations are symbolic: sorts, generator operations with input/output
words, and relations as pairs of layered 2-cells (one operation or crossing
per slice); nothing here solves word problems.

The tensor T ⊗ S of two planar theories is a braided theory on the sorts
a⊗c.  Each theory's generators and relations are indexed by the other's
sorts (φ⊗c for every sort c of S, a⊗ψ for every sort a of T), and each
generator pair φ, ψ adds one interchange relation φ⊗ψ running the two
operations past one another, the crossing side (ψ first, then φ) listed
first.  `prop_quotient` makes a braided theory symmetric by equating each
crossing with its inverse; given the tensor context (T, S) it also declares
the crossings σ[a,b]⊗c and a⊗σ[c,d] of the factors as generators and
identifies each with the braiding on its two wires.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Sequence

from .ogp import MINUS
from .products import (
    BASEPOINT,
    LabelledComplex,
    gray_labelled,
    pair_id,
    smash_collapse,
)
from .fixtures import NamedMolecule, _cell_to, _named, _paste
from .molecules import cell_to, globe, globe_molecule, paste, u_cell
from .ogp import validate_complex


class TheoryError(ValueError):
    pass


# -- permutations -----------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i-1]`` is the image of i.

    >>> Permutation((2, 5, 1, 4, 3)).inversions()
    5
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise TheoryError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i in range(1, self.n + 1):
            out[self(i) - 1] = i
        return Permutation(tuple(out))

    def inversions(self) -> int:
        return sum(
            1
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if self(j) < self(i)
        )

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def perm_decompose(s: Permutation) -> list[int]:
    """Adjacent-transposition word for a permutation, leftmost factor first.

    At each stage the factor swaps the least position k whose value order is
    broken; the word length equals the inversion count, and folding the
    positions back (right to left, swapping k with k+1) restores ``s``.

    >>> perm_decompose(Permutation((2, 5, 1, 4, 3)))
    [2, 1, 3, 4, 3]
    """
    cur = list(s.images)
    word: list[int] = []
    while True:
        k = next((i for i in range(len(cur) - 1) if cur[i + 1] < cur[i]), None)
        if k is None:
            break
        word.append(k + 1)
        cur[k], cur[k + 1] = cur[k + 1], cur[k]
    return word


def perm_recompose(word: Sequence[int], n: int) -> Permutation:
    """Inverse of `perm_decompose` under the same composition convention;
    each position must lie in 1..n-1."""
    if any(not 1 <= k < n for k in word):
        raise TheoryError(f"transposition positions must lie in 1..{n - 1}")
    cur = list(range(1, n + 1))
    for k in reversed(word):
        cur[k - 1], cur[k] = cur[k], cur[k - 1]
    return Permutation(tuple(cur))


# -- layered 2-cells ----------------------------------------------------------------

Word = tuple[str, ...]


@dataclass(frozen=True)
class GenRef:
    name: str


@dataclass(frozen=True)
class Braid:
    a: str
    b: str


@dataclass(frozen=True)
class BraidInv:
    a: str
    b: str


Op = GenRef | Braid | BraidInv


@dataclass(frozen=True)
class Slice:
    pre: Word
    op: Op
    post: Word


@dataclass(frozen=True)
class Layered2Cell:
    """A vertical stack of whiskered single operations."""

    source: Word
    slices: tuple[Slice, ...]

    def target(self, signatures: Mapping[str, tuple[Word, Word]]) -> Word:
        word = self.source
        for s in self.slices:
            i, o = _op_words(s.op, signatures)
            lo = len(s.pre)
            if word[:lo] != s.pre or word[lo : lo + len(i)] != i or word[lo + len(i) :] != s.post:
                raise TheoryError(f"slice does not chain: {s} against {word}")
            word = s.pre + o + s.post
        return word

    def braid_count(self) -> int:
        return sum(1 for s in self.slices if isinstance(s.op, (Braid, BraidInv)))


def _op_words(op: Op, signatures: Mapping[str, tuple[Word, Word]]) -> tuple[Word, Word]:
    if isinstance(op, GenRef):
        if op.name not in signatures:
            raise TheoryError(f"unknown generator {op.name!r}")
        return signatures[op.name]
    return (op.a, op.b), (op.b, op.a)


def unit_cell(word: Word) -> Layered2Cell:
    return Layered2Cell(tuple(word), ())


def sigma_expr(s: Permutation, w: Sequence[str]) -> Layered2Cell:
    """The positive-crossing braid word realising a permutation on a word."""
    source = tuple(w)
    if s.n != len(source):
        raise TheoryError("permutation and word lengths differ")
    slices = []
    word = source
    for k in perm_decompose(s):
        a, b = word[k - 1], word[k]
        slices.append(Slice(word[: k - 1], Braid(a, b), word[k + 1 :]))
        word = word[: k - 1] + (b, a) + word[k + 1 :]
    return Layered2Cell(source, tuple(slices))


def sigma_star_expr(s: Permutation, w: Sequence[str]) -> Layered2Cell:
    """The inverse-crossing realisation: the formal inverse of the positive
    word for the inverse permutation t, on the word whose image under t is
    ``w``, so that it reads back from ``w``."""
    if s.n != len(w):
        raise TheoryError("permutation and word lengths differ")
    t = s.inverse()
    return _reversed(sigma_expr(t, tuple(w[t(j) - 1] for j in range(1, t.n + 1))), {}, {})


def _reversed(
    cell: Layered2Cell, signatures: Mapping[str, tuple[Word, Word]], rename: Mapping[str, str]
) -> Layered2Cell:
    """``cell`` read backwards from its target: the slices in reverse order,
    each crossing inverted and each generator renamed through ``rename``."""
    slices = []
    for s in reversed(cell.slices):
        op = s.op
        if isinstance(op, GenRef):
            op = GenRef(rename.get(op.name, op.name))
        else:
            op = (BraidInv if isinstance(op, Braid) else Braid)(op.b, op.a)
        slices.append(Slice(s.pre, op, s.post))
    return Layered2Cell(cell.target(signatures), tuple(slices))


def wire_permutation(e: Layered2Cell) -> Permutation:
    """Trace the wires of a crossings-only cell: input i exits at position s(i)."""
    if any(isinstance(s.op, GenRef) for s in e.slices):
        raise TheoryError("wire tracing needs a crossings-only cell")
    e.target({})  # raises TheoryError unless the slices chain
    n = len(e.source)
    at = list(range(1, n + 1))  # at[p-1] = the input wire currently at position p
    for s in e.slices:
        k = len(s.pre)
        at[k], at[k + 1] = at[k + 1], at[k]
    out = [0] * n
    for p, wire in enumerate(at, start=1):
        out[wire - 1] = p
    return Permutation(tuple(out))


def block_sigma(
    n: int, m: int, sorts: Sequence[Sequence[str]]
) -> tuple[Layered2Cell, Layered2Cell]:
    """The crossing cells between row-major and column-major orderings of an
    n-by-m family of sorts: the positive word into column-major order and
    the inverse word back, which is the positive word read backwards."""
    if len(sorts) != n or any(len(row) != m for row in sorts):
        raise TheoryError(f"expected an {n} x {m} family of sorts")
    if n == 0 or m == 0:
        return unit_cell(()), unit_cell(())
    row_major = tuple(sorts[i][j] for i in range(n) for j in range(m))
    # position map sending an entry's row-major slot to its column-major slot
    s = Permutation(tuple(j * n + i + 1 for i in range(n) for j in range(m)))
    sigma = sigma_expr(s, row_major)
    return sigma, _reversed(sigma, {}, {})


# -- presentations ------------------------------------------------------------------


@dataclass(frozen=True)
class GenOp:
    name: str
    inputs: Word
    outputs: Word


@dataclass(frozen=True)
class Relation:
    name: str
    lhs: Layered2Cell
    rhs: Layered2Cell


@dataclass(frozen=True)
class ProPresentation:
    name: str
    sorts: tuple[str, ...]
    generators: tuple[GenOp, ...]
    relations: tuple[Relation, ...] = ()
    braided: bool = False
    symmetric: bool = False

    def __post_init__(self):
        # signatures() keys generators by name, and sorts are told apart by name
        for what, names in (("sorts", self.sorts), ("generator names", [g.name for g in self.generators])):
            if len(set(names)) != len(names):
                twice = sorted({x for x in names if names.count(x) > 1})
                raise TheoryError(f"{self.name}: {what} are not distinct: {twice}")

    def signatures(self) -> dict[str, tuple[Word, Word]]:
        return {g.name: (g.inputs, g.outputs) for g in self.generators}

    def check_relations(self) -> None:
        sig = self.signatures()
        for r in self.relations:
            if r.lhs.source != r.rhs.source:
                raise TheoryError(f"{self.name}.{r.name}: sides have different sources")
            if r.lhs.target(sig) != r.rhs.target(sig):
                raise TheoryError(f"{self.name}.{r.name}: sides have different targets")


def pro_dual(p: ProPresentation, rename: Mapping[str, str] | None = None) -> ProPresentation:
    """Reverse all operations: inputs and outputs swap, relation stacks flip."""
    rename = rename or {}
    gens = tuple(GenOp(rename.get(g.name, g.name), g.outputs, g.inputs) for g in p.generators)
    sig = p.signatures()
    rels = tuple(
        Relation(rename.get(r.name, r.name), _reversed(r.lhs, sig, rename), _reversed(r.rhs, sig, rename))
        for r in p.relations
    )
    return ProPresentation(f"{p.name}^co", p.sorts, gens, rels, p.braided, p.symmetric)


def _relabel_cell(cell: Layered2Cell, lab: Callable[[str], str]) -> Layered2Cell:
    """``cell`` with every sort and every operation name mapped through ``lab``."""

    def word(w: Word) -> Word:
        return tuple(map(lab, w))

    def op(o: Op) -> Op:
        return GenRef(lab(o.name)) if isinstance(o, GenRef) else type(o)(lab(o.a), lab(o.b))

    return Layered2Cell(
        word(cell.source), tuple(Slice(word(s.pre), op(s.op), word(s.post)) for s in cell.slices)
    )


def _indexed_gen(g: GenOp, lab: Callable[[str], str]) -> GenOp:
    """``g`` with its name and sorts mapped through ``lab``."""
    return GenOp(lab(g.name), tuple(map(lab, g.inputs)), tuple(map(lab, g.outputs)))


def _parallel_slices(gens: Sequence[GenOp]) -> Layered2Cell:
    """Layer a horizontal composite of operations, leftmost applied first."""
    slices = []
    done: Word = ()
    for idx, g in enumerate(gens):
        rest = tuple(x for g2 in gens[idx + 1 :] for x in g2.inputs)
        slices.append(Slice(done, GenRef(g.name), rest))
        done += g.outputs
    return Layered2Cell(tuple(x for g in gens for x in g.inputs), tuple(slices))


def tensor_pros(t: ProPresentation, s: ProPresentation, sep: str = "⊗") -> ProPresentation:
    """External tensor of two planar theories, as a braided theory.

    Sorts are pairs; each theory's generators and relations reappear indexed
    by the other's sorts, and every generator pair contributes the equation
    running one operation past the other, the crossing side listed first.
    Sorts or generator names that pair up to one name twice are refused, as
    in any `ProPresentation`.
    """
    on_t = [partial(pair_id, y=c, sep=sep) for c in s.sorts]  # x ↦ x⊗c
    on_s = [partial(pair_id, a, sep=sep) for a in t.sorts]  # x ↦ a⊗x

    def rel(r: Relation, lab: Callable[[str], str]) -> Relation:
        return Relation(lab(r.name), _relabel_cell(r.lhs, lab), _relabel_cell(r.rhs, lab))

    name = pair_id(t.name, s.name, sep)
    sorts = tuple(pair_id(a, c, sep) for a in t.sorts for c in s.sorts)
    gens = [_indexed_gen(g, lab) for g in t.generators for lab in on_t]
    gens += [_indexed_gen(g, lab) for lab in on_s for g in s.generators]
    rels = [rel(r, lab) for r in t.relations for lab in on_t]
    rels += [rel(r, lab) for lab in on_s for r in s.relations]
    rels += [_interchange_relation(phi, psi, sep) for phi in t.generators for psi in s.generators]
    out = ProPresentation(name, sorts, tuple(gens), tuple(rels), braided=True)
    out.check_relations()
    return out


def _interchange_relation(phi: GenOp, psi: GenOp, sep: str) -> Relation:
    a, b = phi.inputs, phi.outputs
    c, d = psi.inputs, psi.outputs

    def phi_on(wires: Word) -> Layered2Cell:  # φ⊗w for each sort w
        return _parallel_slices([_indexed_gen(phi, partial(pair_id, y=w, sep=sep)) for w in wires])

    def psi_on(wires: Word) -> Layered2Cell:  # w⊗ψ for each sort w
        return _parallel_slices([_indexed_gen(psi, partial(pair_id, w, sep=sep)) for w in wires])

    def grid(rows: Word, cols: Word) -> list[list[str]]:
        return [[pair_id(r, cl, sep) for cl in cols] for r in rows]

    # crossing side: the second theory's operation on every first-sort wire,
    # reorder, the first theory's operation on every second-sort wire, reorder
    first = psi_on(a)
    sg, _ = block_sigma(len(a), len(d), grid(a, d))
    _, sg_star = block_sigma(len(b), len(d), grid(b, d))
    lhs = Layered2Cell(first.source, first.slices + sg.slices + phi_on(d).slices + sg_star.slices)

    sg2, _ = block_sigma(len(a), len(c), grid(a, c))
    _, sg2_star = block_sigma(len(b), len(c), grid(b, c))
    rhs = Layered2Cell(
        first.source, sg2.slices + phi_on(c).slices + sg2_star.slices + psi_on(b).slices
    )
    return Relation(pair_id(phi.name, psi.name, sep), lhs, rhs)


def prop_quotient(
    p: ProPresentation,
    tensor_of_props: tuple[ProPresentation, ProPresentation] | None = None,
    sep: str = "⊗",
) -> ProPresentation:
    """Pass from a braided to a symmetric presentation.

    Adds the crossing-equals-inverse-crossing relation for every sort pair.
    When the braided theory arose as the tensor of symmetric theories T, S,
    it also declares their crossings σ[a,b]⊗c and a⊗σ[c,d] as generators and
    adds the relations identifying each with the new crossing on its wires.
    Idempotent: existing generator and relation names are not duplicated.
    """
    if not p.braided:
        raise TheoryError("prop quotient applies to braided presentations")
    gens = list(p.generators)
    # candidates (name, wires, lhs op, rhs op), each a one-slice relation
    cands: list[tuple[str, Word, Op, Op]] = [
        (f"σ[{a},{b}]=σ*[{a},{b}]", (a, b), Braid(a, b), BraidInv(a, b))
        for a in p.sorts
        for b in p.sorts
    ]
    if tensor_of_props is not None:
        t, s = tensor_of_props
        # the factors' crossings (name, first wire, second wire)
        crossings = [
            (f"σ[{a},{b}]{sep}{c}", pair_id(a, c, sep), pair_id(b, c, sep))
            for a in t.sorts
            for b in t.sorts
            for c in s.sorts
        ]
        crossings += [
            (f"{a}{sep}σ[{c},{d}]", pair_id(a, c, sep), pair_id(a, d, sep))
            for a in t.sorts
            for c in s.sorts
            for d in s.sorts
        ]
        declared = {g.name for g in gens}
        gens += [GenOp(nm, (x, y), (y, x)) for nm, x, y in crossings if nm not in declared]
        cands += [(nm, (x, y), GenRef(nm), Braid(x, y)) for nm, x, y in crossings]
    have = {r.name for r in p.relations}
    rels = list(p.relations)
    for nm, wires, lhs, rhs in cands:
        if nm not in have:
            have.add(nm)
            rels.append(Relation(nm, _one_slice(wires, lhs), _one_slice(wires, rhs)))
    return replace(p, generators=tuple(gens), relations=tuple(rels), symmetric=True)


def _one_slice(wires: Word, op: Op) -> Layered2Cell:
    return Layered2Cell(wires, (Slice((), op, ()),))


# -- diagrammatic complex presentations -----------------------------------------------


@dataclass(frozen=True)
class DiagCell:
    name: str
    dim: int
    cell: LabelledComplex


@dataclass(frozen=True)
class DiagComplexPresentation:
    name: str
    cells: tuple[DiagCell, ...]

    def inventory(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for c in self.cells:
            out.setdefault(c.dim, []).append(c.name)
        return dict(sorted(out.items()))

    def cell(self, name: str) -> DiagCell:
        for c in self.cells:
            if c.name == name:
                return c
        raise TheoryError(f"{self.name}: no generating cell {name!r}")

    def check(self) -> None:
        """Label discipline: every label is the basepoint or a generator of
        the element's own dimension; every shape's cells are well formed."""
        dims = {c.name: c.dim for c in self.cells}
        for c in self.cells:
            shape = c.cell.shape
            if len([x for x in shape.elements() if shape.dim_of(x) == c.dim]) != 1:
                raise TheoryError(f"{self.name}.{c.name}: shape is not an atom of dim {c.dim}")
            for x in shape.elements():
                lbl = c.cell.labels[x]
                if lbl == BASEPOINT:
                    continue
                if lbl not in dims:
                    raise TheoryError(f"{self.name}.{c.name}: label {lbl!r} is not a generator")
                if dims[lbl] != shape.dim_of(x):
                    raise TheoryError(
                        f"{self.name}.{c.name}: label {lbl!r} of dim {dims[lbl]} "
                        f"on a {shape.dim_of(x)}-element"
                    )
            rep = validate_complex(shape)
            if not rep.passed:
                raise TheoryError(f"{self.name}.{c.name}: shape fails validation")


def presentation_of_smash(
    x: DiagComplexPresentation, y: DiagComplexPresentation, sep: str = "⊗"
) -> DiagComplexPresentation:
    """Smash of two single-basepoint presentations.

    Generating cells are the basepoint and all pairs of non-basepoint
    generators; each pair's shape is the product of shapes with pair labels,
    wedge fibres collapsed to the basepoint.
    """
    cells: list[DiagCell] = [
        DiagCell(BASEPOINT, 0, LabelledComplex(globe(0), {"0": BASEPOINT}))
    ]
    for cx_ in x.cells:
        if cx_.name == BASEPOINT:
            continue
        for cy in y.cells:
            if cy.name == BASEPOINT:
                continue
            lab = smash_collapse(gray_labelled(cx_.cell, cy.cell, sep))
            cells.append(DiagCell(pair_id(cx_.name, cy.name, sep), cx_.dim + cy.dim, lab))
    return DiagComplexPresentation(pair_id(x.name, y.name, sep), tuple(cells))


# -- builtin theories -----------------------------------------------------------------


def _mon_presentation() -> ProPresentation:
    s = "1"
    mu = GenOp("μ", (s, s), (s,))
    eta = GenOp("η", (), (s,))
    assoc = Relation(
        "α",
        Layered2Cell((s, s, s), (Slice((), GenRef("μ"), (s,)), Slice((), GenRef("μ"), ()))),
        Layered2Cell((s, s, s), (Slice((s,), GenRef("μ"), ()), Slice((), GenRef("μ"), ()))),
    )
    lunit = Relation(
        "λ",
        Layered2Cell((s,), (Slice((), GenRef("η"), (s,)), Slice((), GenRef("μ"), ()))),
        unit_cell((s,)),
    )
    runit = Relation(
        "ρ",
        Layered2Cell((s,), (Slice((s,), GenRef("η"), ()), Slice((), GenRef("μ"), ()))),
        unit_cell((s,)),
    )
    p = ProPresentation("Mon", (s,), (mu, eta), (assoc, lunit, runit))
    p.check_relations()
    return p


def _label_molecule(m, special):
    """Vertices get the basepoint, wires the sort and 2-cells μ, unless
    ``special`` labels them; it must label every cell above dimension 2."""
    cx = m.complex
    defaults = (BASEPOINT, "1", "μ")
    labels = {x: special[x] if x in special else defaults[cx.dim_of(x)] for x in m.members}
    return LabelledComplex(cx.restrict(m.members), labels)


def _mon_complex() -> DiagComplexPresentation:
    o0 = globe(0)
    o1 = globe(1)
    point = DiagCell(BASEPOINT, 0, LabelledComplex(o0, {"0": BASEPOINT}))
    wire = DiagCell(
        "1", 1, LabelledComplex(o1, {"0-": BASEPOINT, "0+": BASEPOINT, "1": "1"})
    )
    mu_shape = u_cell(2, 1)
    mu = DiagCell("μ", 2, _label_molecule(mu_shape, {"top": "μ"}))
    eta_shape = u_cell(1, 1)
    eta_in = next(x for x in eta_shape.boundary(1, MINUS) if eta_shape.complex.dim_of(x) == 1)
    eta = DiagCell("η", 2, _label_molecule(eta_shape, {"top": "η", eta_in: BASEPOINT}))

    o1m = lambda: globe_molecule(1)
    m_side = paste(paste(u_cell(2, 1), o1m(), 0), u_cell(2, 1), 1)
    n_side = paste(paste(o1m(), u_cell(2, 1), 0), u_cell(2, 1), 1)
    assoc_shape = cell_to(m_side, n_side)
    assoc = DiagCell("α", 3, _label_molecule(assoc_shape, {"top": "α"}))

    # λ, ρ: η beside a wire, then μ, rewrite to a μ-shaped cell labelled as the
    # basepoint; η's input wire ("dotted") is a basepoint too
    eta_named = NamedMolecule(eta_shape, {"η": "top", "dotted": eta_in})

    def unitor(name: str, eta_on_left: bool) -> DiagCell:
        o1n = _named(o1m())
        lo = _paste(eta_named, o1n, 0) if eta_on_left else _paste(o1n, eta_named, 0)
        shape = _cell_to(_paste(lo, _named(u_cell(2, 1)), 1), _named(u_cell(2, 1), "μ"), name)
        special = {shape[name]: name, shape["η"]: "η", shape["dotted"]: BASEPOINT, shape["μ"]: BASEPOINT}
        return DiagCell(name, 3, _label_molecule(shape.molecule, special))

    out = DiagComplexPresentation(
        "MonComplex", (point, wire, mu, eta, assoc, unitor("λ", True), unitor("ρ", False))
    )
    out.check()
    return out


# the comonoid's names for the monoid's generators and relations
_CO_NAMES = {"μ": "δ", "η": "ε", "α": "α*", "λ": "λ*", "ρ": "ρ*"}


def _comon_complex() -> DiagComplexPresentation:
    base = _mon_complex()
    cells = []
    for c in base.cells:
        if c.dim == 0:
            cells.append(c)
            continue
        shape = c.cell.shape.dual(dims={2}, name=c.cell.shape.name + "co")
        labels = {x: _CO_NAMES.get(l, l) for x, l in c.cell.labels.items()}
        cells.append(DiagCell(_CO_NAMES.get(c.name, c.name), c.dim, LabelledComplex(shape, labels)))
    out = DiagComplexPresentation("coMonComplex", tuple(cells))
    out.check()
    return out


def _bialg_expected(sep: str = "⊗") -> ProPresentation:
    """Hand-written interchange relations of the monoid/comonoid tensor,
    the crossing on the left side of the multiplication/comultiplication
    pair.  Golden data for comparison against `tensor_pros` output."""
    s = pair_id("1", "1", sep)
    mu = pair_id("μ", "1", sep)
    eta = pair_id("η", "1", sep)
    delta = pair_id("1", "δ", sep)
    eps = pair_id("1", "ε", sep)
    gens = (
        GenOp(mu, (s, s), (s,)),
        GenOp(eta, (), (s,)),
        GenOp(delta, (s,), (s, s)),
        GenOp(eps, (s,), ()),
    )
    rels = (
        Relation(
            pair_id("μ", "δ", sep),
            Layered2Cell(
                (s, s),
                (
                    Slice((), GenRef(delta), (s,)),
                    Slice((s, s), GenRef(delta), ()),
                    Slice((s,), Braid(s, s), (s,)),
                    Slice((), GenRef(mu), (s, s)),
                    Slice((s,), GenRef(mu), ()),
                ),
            ),
            Layered2Cell((s, s), (Slice((), GenRef(mu), ()), Slice((), GenRef(delta), ()))),
        ),
        Relation(
            pair_id("μ", "ε", sep),
            Layered2Cell((s, s), (Slice((), GenRef(eps), (s,)), Slice((), GenRef(eps), ()))),
            Layered2Cell((s, s), (Slice((), GenRef(mu), ()), Slice((), GenRef(eps), ()))),
        ),
        Relation(
            pair_id("η", "δ", sep),
            Layered2Cell((), (Slice((), GenRef(eta), ()), Slice((s,), GenRef(eta), ()))),
            Layered2Cell((), (Slice((), GenRef(eta), ()), Slice((), GenRef(delta), ()))),
        ),
        Relation(
            pair_id("η", "ε", sep),
            unit_cell(()),
            Layered2Cell((), (Slice((), GenRef(eta), ()), Slice((), GenRef(eps), ()))),
        ),
    )
    p = ProPresentation("BialgExpected", (s,), gens, rels, braided=True)
    p.check_relations()
    return p


_BUILTINS = {
    "N": lambda: ProPresentation("N", ("1",), ()),
    "Mon": _mon_presentation,
    "coMon": lambda: pro_dual(_mon_presentation(), _CO_NAMES),
    "MonComplex": _mon_complex,
    "coMonComplex": _comon_complex,
    "BialgExpected": _bialg_expected,
}


def builtin(name: str) -> ProPresentation | DiagComplexPresentation:
    """Shipped theories: N, Mon, coMon, MonComplex, coMonComplex, BialgExpected."""
    try:
        make = _BUILTINS[name]
    except KeyError:
        raise TheoryError(f"unknown builtin {name!r}; have {sorted(_BUILTINS)}") from None
    return make()
