"""Presented monoidal theories: permutations, braiding words, tensor products.

Presentations are symbolic: sorts, generator operations with input/output
words, and relations as pairs of layered 2-cells (one operation or crossing
per slice).  The tensor of two planar theories is a braided theory whose
extra relations run each pair of operations past one another; nothing here
solves word problems.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .ogp import MINUS
from .products import (
    BASEPOINT,
    LabelledComplex,
    gray_labelled,
    pair_id,
    smash_collapse,
    smash_generators,
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
    """Inverse of `perm_decompose` under the same composition convention."""
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


def stack(*cells: Layered2Cell) -> Layered2Cell:
    """Vertical composition of layered cells (targets must chain, unchecked
    here; `target` performs checking when signatures are known)."""
    if not cells:
        raise TheoryError("empty stack")
    slices: tuple[Slice, ...] = ()
    for c in cells:
        slices += c.slices
    return Layered2Cell(cells[0].source, slices)


def sigma_expr(s: Permutation, w: Sequence[str]) -> Layered2Cell:
    """The positive-crossing braid word realising a permutation on a word."""
    return _braiding_cell(s, tuple(w))


def sigma_star_expr(s: Permutation, w: Sequence[str]) -> Layered2Cell:
    """The inverse-crossing realisation: the formal inverse of the positive
    word for the inverse permutation."""
    forward = _braiding_cell(s.inverse(), _permute_word(s, tuple(w)))
    # invert: reverse the slices and flip every crossing
    word = tuple(w)
    slices = []
    for sl in reversed(forward.slices):
        assert isinstance(sl.op, Braid)
        k = len(sl.pre)
        a, b = word[k], word[k + 1]
        slices.append(Slice(word[:k], BraidInv(a, b), word[k + 2 :]))
        word = word[:k] + (b, a) + word[k + 2 :]
    return Layered2Cell(tuple(w), tuple(slices))


def _permute_word(s: Permutation, w: Word) -> Word:
    return tuple(w[s(j) - 1] for j in range(1, s.n + 1))


def _braiding_cell(s: Permutation, w: Word) -> Layered2Cell:
    if s.n != len(w):
        raise TheoryError("permutation and word lengths differ")
    slices = []
    word = w
    for k in perm_decompose(s):
        a, b = word[k - 1], word[k]
        slices.append(Slice(word[: k - 1], Braid(a, b), word[k + 1 :]))
        word = word[: k - 1] + (b, a) + word[k + 1 :]
    return Layered2Cell(w, tuple(slices))


def wire_permutation(e: Layered2Cell) -> Permutation:
    """Trace the wires of a crossings-only cell: input i exits at position s(i)."""
    n = len(e.source)
    at = list(range(1, n + 1))  # at[p-1] = the input wire currently at position p
    for s in e.slices:
        if isinstance(s.op, GenRef):
            raise TheoryError("wire tracing needs a crossings-only cell")
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
    the inverse word back."""
    if len(sorts) != n or any(len(row) != m for row in sorts):
        raise TheoryError(f"expected an {n} x {m} family of sorts")
    if n == 0 or m == 0:
        return unit_cell(()), unit_cell(())
    row_major = tuple(sorts[i][j] for i in range(n) for j in range(m))
    column_major = tuple(sorts[i][j] for j in range(m) for i in range(n))
    # position map sending an entry's row-major slot to its column-major slot
    to_col = [0] * (n * m)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            to_col[(i - 1) * m + (j - 1)] = (j - 1) * n + i
    s = Permutation(tuple(to_col))
    sigma = sigma_expr(s, row_major)
    sigma_star = sigma_star_expr(s.inverse(), column_major)
    return sigma, sigma_star


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

    def signatures(self) -> dict[str, tuple[Word, Word]]:
        return {g.name: (g.inputs, g.outputs) for g in self.generators}

    def generator(self, name: str) -> GenOp:
        for g in self.generators:
            if g.name == name:
                return g
        raise TheoryError(f"{self.name}: no generator {name!r}")

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

    def nm(x: str) -> str:
        return rename.get(x, x)

    gens = tuple(GenOp(nm(g.name), g.outputs, g.inputs) for g in p.generators)

    sig = p.signatures()

    def flip_cell(c: Layered2Cell) -> Layered2Cell:
        word = c.target(sig)
        slices = []
        for s in reversed(c.slices):
            if isinstance(s.op, GenRef):
                op: Op = GenRef(nm(s.op.name))
            elif isinstance(s.op, Braid):
                op = BraidInv(s.op.b, s.op.a)
            else:
                op = Braid(s.op.b, s.op.a)
            slices.append(Slice(s.pre, op, s.post))
        return Layered2Cell(word, tuple(slices))

    rels = tuple(
        Relation(nm(r.name), flip_cell(r.lhs), flip_cell(r.rhs)) for r in p.relations
    )
    return ProPresentation(f"{p.name}^co", p.sorts, gens, rels, p.braided, p.symmetric)


def _parallel_slices(
    apps: Sequence[tuple[str, Word, Word]]
) -> tuple[Layered2Cell, Word, Word]:
    """Layer a horizontal composite of operations, leftmost applied first."""
    source = tuple(x for _, i, _ in apps for x in i)
    target = tuple(x for _, _, o in apps for x in o)
    slices = []
    done: Word = ()
    for idx, (name, i, o) in enumerate(apps):
        rest = tuple(x for _, i2, _ in apps[idx + 1 :] for x in i2)
        slices.append(Slice(done, GenRef(name), rest))
        done += o
    return Layered2Cell(source, tuple(slices)), source, target


def tensor_pros(t: ProPresentation, s: ProPresentation, sep: str = "⊗") -> ProPresentation:
    """External tensor of two planar theories, as a braided theory.

    Sorts are pairs; each theory's generators and relations reappear indexed
    by the other's sorts, and every generator pair contributes the equation
    running one operation past the other, the crossing side listed first.
    """
    sorts = tuple(pair_id(a, c, sep) for a in t.sorts for c in s.sorts)
    gens: list[GenOp] = []
    for g in t.generators:
        for c in s.sorts:
            gens.append(
                GenOp(
                    pair_id(g.name, c, sep),
                    tuple(pair_id(a, c, sep) for a in g.inputs),
                    tuple(pair_id(a, c, sep) for a in g.outputs),
                )
            )
    for a in t.sorts:
        for g in s.generators:
            gens.append(
                GenOp(
                    pair_id(a, g.name, sep),
                    tuple(pair_id(a, c, sep) for c in g.inputs),
                    tuple(pair_id(a, c, sep) for c in g.outputs),
                )
            )
    rels: list[Relation] = []

    def relabel_cell(c: Layered2Cell, left: str | None, right: str | None) -> Layered2Cell:
        def lab(x: str) -> str:
            return pair_id(x, right, sep) if right is not None else pair_id(left, x, sep)

        def lab_op(op: Op) -> Op:
            if isinstance(op, GenRef):
                return GenRef(lab(op.name))
            if isinstance(op, Braid):
                return Braid(lab(op.a), lab(op.b))
            return BraidInv(lab(op.a), lab(op.b))

        return Layered2Cell(
            tuple(lab(x) for x in c.source),
            tuple(
                Slice(tuple(lab(x) for x in sl.pre), lab_op(sl.op), tuple(lab(x) for x in sl.post))
                for sl in c.slices
            ),
        )

    for r in t.relations:
        for c in s.sorts:
            rels.append(
                Relation(
                    pair_id(r.name, c, sep),
                    relabel_cell(r.lhs, None, c),
                    relabel_cell(r.rhs, None, c),
                )
            )
    for a in t.sorts:
        for r in s.relations:
            rels.append(
                Relation(
                    pair_id(a, r.name, sep),
                    relabel_cell(r.lhs, a, None),
                    relabel_cell(r.rhs, a, None),
                )
            )

    for phi in t.generators:
        for psi in s.generators:
            rels.append(_interchange_relation(phi, psi, sep))

    out = ProPresentation(
        pair_id(t.name, s.name, sep), sorts, tuple(gens), tuple(rels), braided=True
    )
    out.check_relations()
    return out


def _interchange_relation(phi: GenOp, psi: GenOp, sep: str) -> Relation:
    a, b = phi.inputs, phi.outputs
    c, d = psi.inputs, psi.outputs
    n, m, p, q = len(a), len(b), len(c), len(d)

    def grid(rows: Word, cols: Word) -> list[list[str]]:
        return [[pair_id(r, cl, sep) for cl in cols] for r in rows]

    # crossing side: the second theory's operation on every first-sort wire,
    # reorder, the first theory's operation on every second-sort wire, reorder
    left_apps = [
        (pair_id(a[i], psi.name, sep), tuple(pair_id(a[i], ck, sep) for ck in c), tuple(pair_id(a[i], dl, sep) for dl in d))
        for i in range(n)
    ]
    lhs_1, lhs_src, _ = _parallel_slices(left_apps)
    sg, _ = block_sigma(n, q, grid(a, d))
    mid_apps = [
        (pair_id(phi.name, d[l], sep), tuple(pair_id(ai, d[l], sep) for ai in a), tuple(pair_id(bj, d[l], sep) for bj in b))
        for l in range(q)
    ]
    lhs_3, _, _ = _parallel_slices(mid_apps)
    _, sg_star = block_sigma(m, q, grid(b, d))
    lhs = Layered2Cell(lhs_src, lhs_1.slices + sg.slices + lhs_3.slices + sg_star.slices)

    sg2, _ = block_sigma(n, p, grid(a, c))
    first_apps = [
        (pair_id(phi.name, c[k], sep), tuple(pair_id(ai, c[k], sep) for ai in a), tuple(pair_id(bj, c[k], sep) for bj in b))
        for k in range(p)
    ]
    rhs_2, _, _ = _parallel_slices(first_apps)
    _, sg2_star = block_sigma(m, p, grid(b, c))
    last_apps = [
        (pair_id(b[j], psi.name, sep), tuple(pair_id(b[j], ck, sep) for ck in c), tuple(pair_id(b[j], dl, sep) for dl in d))
        for j in range(m)
    ]
    rhs_4, _, _ = _parallel_slices(last_apps)
    rhs_src = tuple(pair_id(ai, ck, sep) for ai in a for ck in c)
    rhs = Layered2Cell(rhs_src, sg2.slices + rhs_2.slices + sg2_star.slices + rhs_4.slices)
    return Relation(pair_id(phi.name, psi.name, sep), lhs, rhs)


def prop_quotient(
    p: ProPresentation,
    tensor_of_props: tuple[ProPresentation, ProPresentation] | None = None,
    sep: str = "⊗",
) -> ProPresentation:
    """Pass from a braided to a symmetric presentation.

    Adds the crossing-equals-inverse-crossing relation for every sort pair,
    and, when the braided theory arose as a tensor of symmetric theories,
    the relations identifying their original crossings with the new ones.
    Idempotent: existing relation names are not duplicated.
    """
    if not p.braided:
        raise TheoryError("prop quotient applies to braided presentations")
    have = {r.name for r in p.relations}
    rels = list(p.relations)
    for a in p.sorts:
        for b in p.sorts:
            nm = f"σ[{a},{b}]=σ*[{a},{b}]"
            if nm in have:
                continue
            have.add(nm)
            rels.append(
                Relation(
                    nm,
                    Layered2Cell((a, b), (Slice((), Braid(a, b), ()),)),
                    Layered2Cell((a, b), (Slice((), BraidInv(a, b), ()),)),
                )
            )
    if tensor_of_props is not None:
        t, s = tensor_of_props
        for a in t.sorts:
            for b in t.sorts:
                for c in s.sorts:
                    nm = f"σ[{a},{b}]{sep}{c}"
                    if nm in have:
                        continue
                    have.add(nm)
                    ac, bc = pair_id(a, c, sep), pair_id(b, c, sep)
                    rels.append(
                        Relation(
                            nm,
                            Layered2Cell((ac, bc), (Slice((), GenRef(nm), ()),)),
                            Layered2Cell((ac, bc), (Slice((), Braid(ac, bc), ()),)),
                        )
                    )
        for a in t.sorts:
            for c in s.sorts:
                for d in s.sorts:
                    nm = f"{a}{sep}σ[{c},{d}]"
                    if nm in have:
                        continue
                    have.add(nm)
                    ac, ad = pair_id(a, c, sep), pair_id(a, d, sep)
                    rels.append(
                        Relation(
                            nm,
                            Layered2Cell((ac, ad), (Slice((), GenRef(nm), ()),)),
                            Layered2Cell((ac, ad), (Slice((), Braid(ac, ad), ()),)),
                        )
                    )
    return replace(p, relations=tuple(rels), symmetric=True)


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

    def by_dim(self) -> dict[int, list[DiagCell]]:
        out: dict[int, list[DiagCell]] = {}
        for c in self.cells:
            out.setdefault(c.dim, []).append(c)
        return dict(sorted(out.items()))

    def inventory(self) -> dict[int, list[str]]:
        return {d: [c.name for c in cs] for d, cs in self.by_dim().items()}

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
    out = DiagComplexPresentation(pair_id(x.name, y.name, sep), tuple(cells))
    gx = {d: [c.name for c in cs] for d, cs in x.by_dim().items()}
    gy = {d: [c.name for c in cs] for d, cs in y.by_dim().items()}
    want = smash_generators(gx, gy, sep)
    have = {d: sorted(ns) for d, ns in out.inventory().items()}
    if have != want:
        raise TheoryError("smash inventory disagrees with the generator count formula")
    return out


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


def _label_molecule(m, special=None, top=None):
    """Vertices get the basepoint, wires the sort, with overrides."""
    cx = m.complex
    labels = {}
    special = special or {}
    for x in m.members:
        if x in special:
            labels[x] = special[x]
        elif cx.dim_of(x) == 0:
            labels[x] = BASEPOINT
        elif cx.dim_of(x) == 1:
            labels[x] = "1"
        elif cx.dim_of(x) == 2:
            labels[x] = "μ"
        else:
            labels[x] = top
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


def _comon_complex() -> DiagComplexPresentation:
    base = _mon_complex()
    rename = {"μ": "δ", "η": "ε", "α": "α*", "λ": "λ*", "ρ": "ρ*"}
    cells = []
    for c in base.cells:
        if c.dim == 0:
            cells.append(c)
            continue
        shape = c.cell.shape.dual(dims={2}, name=c.cell.shape.name + "co")
        labels = {x: rename.get(l, l) for x, l in c.cell.labels.items()}
        cells.append(DiagCell(rename.get(c.name, c.name), c.dim, LabelledComplex(shape, labels)))
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
    "coMon": lambda: pro_dual(
        _mon_presentation(), {"μ": "δ", "η": "ε", "α": "α*", "λ": "λ*", "ρ": "ρ*"}
    ),
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
