"""Gray products of complexes, labelled complexes, and smash collapse.

The Gray product is the cartesian product of the underlying posets with a
parity twist on second-factor orientations.  The product of regular
complexes is regular, so the factors are validated and the larger,
higher-dimensional product is not; each factor is validated once per
complex, however many products it enters.  Labels ride along as pairs; collapsing
the pairs that touch a basepoint gives the smash product at the
presentation level.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .ogp import Complex, SIGNS, flip, validate_complex

BASEPOINT = "•"


class ProductError(ValueError):
    pass


def pair_id(x: str, y: str, sep: str = "⊗") -> str:
    return f"{x}{sep}{y}"


def gray_product(p: Complex, q: Complex, sep: str = "⊗", name: str | None = None) -> Complex:
    """Cartesian product of the posets with the sign twist on the second factor.

    A cover in the first coordinate keeps its sign; a cover in the second
    flips its sign exactly when the first coordinate has odd dimension.  The
    Gray product of regular complexes is regular, so each factor is validated
    (once per complex: `validate_complex` keeps its checks) and the product is
    not; an invalid factor raises `ProductError` naming it and its failing
    elements.
    """
    if any(sep in x for x in p.elements()) or any(sep in y for y in q.elements()):
        raise ProductError(f"separator {sep!r} collides with an element id; pick another")
    for factor in (p, q):
        report = validate_complex(factor)
        if not report.passed:
            raise ProductError(
                f"gray product factor {factor.name} failed validation: "
                f"{[c.element for c in report.failures()]}"
            )
    table: dict[str, tuple[int, list[tuple[str, str]]]] = {}
    for x in p.elements():
        dx = p.dim_of(x)
        twist = dx % 2 == 1
        for y in q.elements():
            cov = [(pair_id(t, y, sep), s) for t, s in p.covers(x)]
            cov += [
                (pair_id(x, t, sep), flip(s) if twist else s) for t, s in q.covers(y)
            ]
            table[pair_id(x, y, sep)] = (dx + q.dim_of(y), cov)
    return Complex(name or f"{p.name}⊗{q.name}", table)


def gray_projections(
    pq: Complex, p: Complex, q: Complex, sep: str = "⊗"
) -> tuple[dict[str, str], dict[str, str]]:
    """Coordinate maps of a Gray product, checked to preserve boundaries."""
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    for e in pq.elements():
        x, _, y = e.partition(sep)
        if x not in p or y not in q:
            raise ProductError(f"element {e!r} does not split over the given factors")
        left[e] = x
        right[e] = y
    for proj, target in ((left, p), (right, q)):
        for e in pq.elements():
            cl = pq.closure([e])
            tcl = target.closure([proj[e]])
            for n in range(pq.dim_of(e) + 1):
                for sign, got, want in zip(SIGNS, pq._boundary_pair(cl, n), target._boundary_pair(tcl, n)):
                    if {proj[z] for z in got} != want:
                        raise ProductError(
                            f"projection breaks the {sign}{n}-boundary at {e!r}"
                        )
    return left, right


@dataclass(frozen=True)
class LabelledComplex:
    """A shape whose elements carry generator names or the basepoint mark.

    ``pairs`` remembers the coordinate labels of elements created by a
    product, so a later collapse can see which ones lie over a basepoint.
    """

    shape: Complex
    labels: Mapping[str, str]
    pairs: Mapping[str, tuple[str, str]] | None = None

    def __post_init__(self):
        missing = [x for x in self.shape.elements() if x not in self.labels]
        if missing:
            raise ProductError(f"{self.shape.name}: unlabelled elements {missing[:3]}")


def gray_labelled(
    x: LabelledComplex, y: LabelledComplex, sep: str = "⊗", name: str | None = None
) -> LabelledComplex:
    """Gray product of shapes with pair labels carried along."""
    shape = gray_product(x.shape, y.shape, sep, name)
    labels = {}
    pairs = {}
    for u in x.shape.elements():
        for v in y.shape.elements():
            e = pair_id(u, v, sep)
            lx, ly = x.labels[u], y.labels[v]
            pairs[e] = (lx, ly)
            labels[e] = pair_id(lx, ly, sep)
    return LabelledComplex(shape, labels, pairs)


def smash_collapse(x: LabelledComplex) -> LabelledComplex:
    """Relabel to the basepoint every element lying over a wedge coordinate.

    An element collapses when either coordinate label of its product pair is
    the basepoint, so ``x`` must carry pair labels (`gray_labelled` output);
    the shape itself is unchanged, collapse being recorded purely in labels.
    """
    if x.pairs is None:
        raise ProductError("collapse needs pair labels")
    labels = {e: BASEPOINT if BASEPOINT in x.pairs[e] else lbl for e, lbl in x.labels.items()}
    return LabelledComplex(x.shape, labels, x.pairs)


def smash_generators(
    gx: Mapping[int, Sequence[str]], gy: Mapping[int, Sequence[str]], sep: str = "⊗"
) -> dict[int, list[str]]:
    """Generator inventory of a smash of presentations: the basepoint plus
    all pairs of non-basepoint generators, graded by total dimension."""
    out: dict[int, list[str]] = {0: [BASEPOINT]}
    for dx, xs in sorted(gx.items()):
        for dy, ys in sorted(gy.items()):
            for x in xs:
                if x == BASEPOINT:
                    continue
                for y in ys:
                    if y == BASEPOINT:
                        continue
                    out.setdefault(dx + dy, []).append(pair_id(x, y, sep))
    return {d: sorted(v) for d, v in sorted(out.items())}
