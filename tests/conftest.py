"""Shared helpers: a seeded random generator of small molecules, and a
check that a witness is a directed cycle of its graph.

Molecules are grown by applying random gluing programs to basic shapes:
horizontal juxtaposition, whiskering, capping a stretch of the output
boundary with a fresh cell, collapsing the output to a single cell, and
raising a spherical molecule one dimension.  Every step goes through the
library's checked constructors, so all outputs carry certificates.
"""
from __future__ import annotations

import random

import pytest

from pastekit import (
    PLUS,
    Molecule,
    PastingError,
    SubstitutionError,
    cell_to,
    compos,
    globe_molecule,
    interval_chain,
    paste,
    recognize,
    spherical,
    u_cell,
)


def _seed_molecule(rng: random.Random) -> Molecule:
    pick = rng.randrange(4)
    if pick == 0:
        return interval_chain(rng.randint(1, 3))
    if pick == 1:
        return u_cell(rng.randint(1, 3), rng.randint(1, 3))
    if pick == 2:
        return globe_molecule(rng.randint(1, 2))
    return paste(u_cell(1, 2), u_cell(2, 1), 1)


def _cap_output(rng: random.Random, u: Molecule) -> Molecule:
    """Paste a fresh cell over a stretch of the top-level output boundary."""
    k = u.dim - 1
    top_out = recognize(u.complex, u.boundary(k, PLUS))
    if top_out is None or not isinstance(top_out, Molecule):
        raise PastingError("output boundary did not recognise")
    if k == 0:
        return paste(u, interval_chain(rng.randint(1, 2)), 0)
    if k == 1:
        wires = sum(1 for x in top_out.members if u.complex.dim_of(x) == 1)
        c = rng.randint(1, wires)
        a = rng.randint(0, wires - c)
        b = wires - c - a
        v = cell_to(interval_chain(c), interval_chain(rng.randint(1, 2)))
        if a:
            v = paste(interval_chain(a), v, 0)
        if b:
            v = paste(v, interval_chain(b), 0)
        return paste(u, v, 1)
    # k == 2: either repeat the boundary or collapse it to one cell
    target = top_out if rng.random() < 0.5 else compos(top_out)
    return paste(u, cell_to(top_out, target), 2)


def random_molecule(
    rng: random.Random, max_elements: int = 40, max_dim: int = 3, ops: int = 7
) -> Molecule:
    u = _seed_molecule(rng)
    for _ in range(ops):
        if len(u) >= max_elements - 6:
            break
        roll = rng.random()
        try:
            if roll < 0.25 and u.dim >= 1:
                v = (
                    u_cell(rng.randint(1, 2), rng.randint(1, 2))
                    if u.dim >= 2 and rng.random() < 0.7
                    else interval_chain(rng.randint(1, 2))
                )
                u = paste(u, v, 0) if rng.random() < 0.5 else paste(v, u, 0)
            elif roll < 0.75:
                u = _cap_output(rng, u)
            elif u.dim < max_dim and u.dim >= 1 and spherical(u):
                u = cell_to(u, compos(u))
            else:
                u = _cap_output(rng, u)
        except (PastingError, SubstitutionError):
            continue
        if len(u) > max_elements:
            break
    return u


def random_2_molecule(rng: random.Random, max_elements: int = 40) -> Molecule:
    while True:
        u = random_molecule(rng, max_elements=max_elements, max_dim=2)
        if u.dim == 2:
            return u


def assert_cycle(adj, cycle) -> None:
    """``cycle`` is a directed cycle of ``adj``: first vertex repeated last,
    no other repeat, an edge between consecutive vertices."""
    assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
    assert len(set(cycle)) == len(cycle) - 1, cycle
    for v, w in zip(cycle, cycle[1:]):
        assert w in adj[v], (cycle, v, w)


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(0xD1A6)
