"""The benchmark's four workloads: seeded plans, timed ops and output checks.

Every workload is a closed loop: one caller, one process, one thread, the
next op issued only after the previous one returns.  A plan is an endless
sequence of *rounds*.  A round visits every cost class of the workload once
(the seed picks which input of the class, and the order within the round),
so every seed runs the same mix of costs and a run's figures depend on the
code, not on which inputs the seed happened to draw.  The runner only stops
between rounds, after the whole number of rounds nearest to its time budget.

Each workload offers:

* ``setup(seed, ref)`` -- import-time and shared inputs; returns a state;
* ``rounds(state)`` -- the seeded plan, an iterator of lists of op inputs;
* ``run(state, item)`` -- the timed op, through pastekit's public API;
* ``check(state, item, out)`` -- ``(problems, digest)``: a list of failed
  checks (empty when the output is right) and a sha256 of the op's
  serialized outputs.  Checks run outside the timed region;
* ``expected(state, item)`` -- the digest frozen in reference.json for this
  input by ``bench/freeze.py``, or None where none is frozen.

Library calls go through module attributes at call time (``pk.paste``),
never through names bound at import, so the traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import pastekit as pk
from pastekit import cli, fixtures, molecules
from pastekit.products import BASEPOINT, pair_id

OUT_DIR = Path(__file__).resolve().parent / "out"


def sha(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8") if isinstance(p, str) else p)
        h.update(b"\0")
    return h.hexdigest()


def _dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


def _is_molecule(x: Any) -> bool:
    return isinstance(x, molecules.Molecule)


def _roundtrip_complex(cx) -> tuple[bytes, bytes]:
    data = pk.serialize.serialize_complex(cx)
    back, _ = pk.serialize.parse_complex(data)
    return data, pk.serialize.serialize_complex(back)


def _cycle(rng: random.Random, members: list) -> Iterator:
    """Endless seeded walk over ``members``: a fresh shuffle per pass."""
    while True:
        order = list(members)
        rng.shuffle(order)
        yield from order


def _stratified_rounds(
    rng: random.Random, classes: list[list], fixed: tuple[int, ...] = ()
) -> Iterator[list]:
    """One member of every class per round, in a seeded order.

    Classes whose index is in ``fixed`` are walked in their listed order on
    every seed.
    """
    walks = [
        itertools.cycle(members) if h in fixed else _cycle(rng, members)
        for h, members in enumerate(classes)
    ]
    while True:
        items = [next(w) for w in walks]
        rng.shuffle(items)
        yield items


# -- frame_small ----------------------------------------------------------------
#
# Acceptance criterion 2 as a stream: random glued molecules of at most 40
# elements and dimension at most 3, each checked for frame acyclicity with
# full enumeration and recognised whole.  Op cost is heavy-tailed (it
# follows the number of molecules enumerated inside the input), so the
# inputs are a fixed corpus whose entries are grouped into cost strata by
# the op time frozen in reference.json, and every round draws one entry
# per stratum.  The costliest stratum is walked heaviest first on every
# seed, so each run holds the corpus's heaviest molecules, which set its
# peak memory and a large share of its time.

FRAME_STRATA = 18


def _seed_shape(rng: random.Random):
    pick = rng.randrange(4)
    if pick == 0:
        return pk.interval_chain(rng.randint(1, 3))
    if pick == 1:
        return pk.u_cell(rng.randint(1, 3), rng.randint(1, 3))
    if pick == 2:
        return pk.globe_molecule(rng.randint(1, 2))
    return pk.paste(pk.u_cell(1, 2), pk.u_cell(2, 1), 1)


def _cap_output(rng: random.Random, u):
    """Paste a fresh cell over a stretch of the top-level output boundary."""
    k = u.dim - 1
    top_out = pk.recognize(u.complex, u.boundary(k, pk.PLUS))
    if not _is_molecule(top_out):
        raise pk.PastingError("output boundary did not recognise")
    if k == 0:
        return pk.paste(u, pk.interval_chain(rng.randint(1, 2)), 0)
    if k == 1:
        wires = sum(1 for x in top_out.members if u.complex.dim_of(x) == 1)
        c = rng.randint(1, wires)
        a = rng.randint(0, wires - c)
        b = wires - c - a
        v = pk.cell_to(pk.interval_chain(c), pk.interval_chain(rng.randint(1, 2)))
        if a:
            v = pk.paste(pk.interval_chain(a), v, 0)
        if b:
            v = pk.paste(v, pk.interval_chain(b), 0)
        return pk.paste(u, v, 1)
    target = top_out if rng.random() < 0.5 else pk.compos(top_out)
    return pk.paste(u, pk.cell_to(top_out, target), 2)


def glued_molecule(rng: random.Random, max_elements: int = 40, max_dim: int = 3, steps: int = 7):
    """A random molecule grown by gluing, as in the acceptance suite.

    Steps: juxtapose a cell or chain along a 0-boundary, cap a stretch of
    the output boundary with a fresh cell, or raise a spherical molecule one
    dimension.  Gluing failures skip the step.
    """
    u = _seed_shape(rng)
    for _ in range(steps):
        if len(u) >= max_elements - 6:
            break
        roll = rng.random()
        try:
            if roll < 0.25 and u.dim >= 1:
                v = (
                    pk.u_cell(rng.randint(1, 2), rng.randint(1, 2))
                    if u.dim >= 2 and rng.random() < 0.7
                    else pk.interval_chain(rng.randint(1, 2))
                )
                u = pk.paste(u, v, 0) if rng.random() < 0.5 else pk.paste(v, u, 0)
            elif roll < 0.75:
                u = _cap_output(rng, u)
            elif u.dim < max_dim and u.dim >= 1 and pk.spherical(u):
                u = pk.cell_to(u, pk.compos(u))
            else:
                u = _cap_output(rng, u)
        except (pk.PastingError, pk.SubstitutionError):
            continue
        if len(u) > max_elements:
            break
    return u


def corpus_rng(entry_seed: int) -> random.Random:
    return random.Random(f"frame_small/{entry_seed}")


def frame_small_setup(seed: int, ref: dict) -> dict:
    corpus = ref["frame_small"]["corpus"]
    order = sorted(range(len(corpus)), key=lambda i: (corpus[i]["cost_ms"], i))
    size = len(order) // FRAME_STRATA
    strata = [order[h * size : (h + 1) * size] for h in range(FRAME_STRATA)]
    strata[-1].extend(order[FRAME_STRATA * size :])
    strata[-1].reverse()
    return {"seed": seed, "corpus": corpus, "strata": strata}


def frame_small_rounds(state: dict) -> Iterator[list]:
    return _stratified_rounds(
        random.Random(f"frame_small:{state['seed']}"), state["strata"], fixed=(FRAME_STRATA - 1,)
    )


def frame_small_run(state: dict, i: int):
    u = glued_molecule(corpus_rng(state["corpus"][i]["entry_seed"]))
    report = pk.frame_acyclic(u.complex)
    rebuilt = pk.recognize(u.complex, u.members)
    return u, report, rebuilt


def frame_small_check(state: dict, i: int, out) -> tuple[list[str], str]:
    u, report, rebuilt = out
    problems = []
    if len(u) > 40 or u.dim > 3:
        problems.append("molecule exceeds 40 elements or dimension 3")
    if not report.ok or report.truncated:
        problems.append(f"frame_acyclic: ok={report.ok} truncated={report.truncated}")
    if not _is_molecule(rebuilt) or rebuilt.members != u.members:
        problems.append("recognize did not rebuild the member set")
        return problems, ""
    if not pk.certificate_ok(rebuilt):
        problems.append("certificate_ok failed on the recognised certificate")
    data, again = _roundtrip_complex(u.complex)
    if data != again:
        problems.append("complex does not reserialize to identical bytes")
    return problems, sha(data, _dumps(pk.certificate_json(rebuilt)), str(report.checked))


def frame_small_expected(state: dict, i: int) -> str:
    return state["corpus"][i]["digest"]


# -- build_large ------------------------------------------------------------------
#
# A few large shapes per op instead of many small queries: construction by
# paste/cell_to (up to 201 elements), recognition or validation of the
# whole, and a serialize round trip.  Chains run at fixed sizes; the other
# slots keep their element counts and gluing widths fixed while the seed
# varies the arities.  Vertical seams are 12 and 11 wires wide, where the
# isomorphism search behind `paste` is measurable but bounded.
#
# A round has nine slots of distinct cost.  Sorted by cost, the fifth is the
# 50-chain, so the median op of a run is that fixed input; while a run
# holds 6 to 10 rounds, the op with ten slower ones beyond it (the tail) is
# a 75-chain.  Every traced run, whatever its workload, also times
# `BUILD_LARGE_SWEEP`, single chains up to 401 elements, for the recognition
# scaling exponent.

ROUND_CHAINS = (25, 50, 75, 100)
BUILD_LARGE_SWEEP = tuple(("chain", n) for n in (25, 50, 100, 200))


def _compositions(rng: random.Random, total: int, parts: int, lo: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total - parts * (lo - 1)), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total - parts * (lo - 1)])]
    return [s + lo - 1 for s in sizes]


def build_large_rounds(state: dict) -> Iterator[list]:
    rng = random.Random(f"build_large:{state['seed']}")
    while True:
        p = rng.randint(45, 55)
        q = rng.randint(25, 35)
        a = rng.randint(4, 20)
        ins = _compositions(rng, 36, 6, 2)
        outs = _compositions(rng, 36, 6, 2)
        left = rng.randint(10, 30)
        mid = rng.randint(2, 8)
        items = [("chain", n) for n in ROUND_CHAINS]
        items += [
            ("ucell", p, 100 - p),
            ("ucell", q, 60 - q),
            ("vstack", a, 12, 11, 12, 11, 24 - a),
            ("hrow",) + tuple(x for pair in zip(ins, outs) for x in pair),
            ("whisker", left, mid, 10 - mid, 40 - left),
        ]
        rng.shuffle(items)
        yield items


def build_shape(item: tuple):
    kind = item[0]
    if kind == "chain":
        return pk.interval_chain(item[1])
    if kind == "ucell":
        return pk.u_cell(item[1], item[2])
    if kind == "vstack":
        widths = item[1:]
        u = pk.u_cell(widths[0], widths[1])
        for a, b in zip(widths[1:], widths[2:]):
            u = pk.paste(u, pk.u_cell(a, b), 1)
        return u
    if kind == "hrow":
        arities = item[1:]
        u = pk.u_cell(arities[0], arities[1])
        for i in range(2, len(arities), 2):
            u = pk.paste(u, pk.u_cell(arities[i], arities[i + 1]), 0)
        return u
    if kind == "whisker":
        _, left, a, b, right = item
        u = pk.paste(pk.interval_chain(left), pk.u_cell(a, b), 0)
        return pk.paste(u, pk.interval_chain(right), 0)
    raise ValueError(f"unknown shape {item!r}")


def build_large_setup(seed: int, ref: dict) -> dict:
    return {"seed": seed, "digests": ref["build_large"]["digests"]}


def build_large_run(state: dict, item: tuple):
    u = build_shape(item)
    if item[0] == "ucell":
        verdict = pk.validate_complex(u.complex)
    else:
        rebuilt = pk.recognize(u.complex, u.members)
        verdict = (rebuilt, _is_molecule(rebuilt) and pk.certificate_ok(rebuilt))
    data, again = _roundtrip_complex(u.complex)
    return u, verdict, data, again


def build_large_check(state: dict, item: tuple, out) -> tuple[list[str], str]:
    u, verdict, data, again = out
    problems = []
    if item[0] == "ucell":
        if not verdict.passed or verdict.unknowns:
            problems.append(f"validate_complex: passed={verdict.passed} unknowns={verdict.unknowns}")
        cert = ""
    else:
        rebuilt, cert_ok = verdict
        if not _is_molecule(rebuilt) or rebuilt.members != u.members:
            problems.append("recognize did not rebuild the member set")
            return problems, ""
        if not cert_ok:
            problems.append("certificate_ok failed on the recognised certificate")
        cert = _dumps(pk.certificate_json(rebuilt))
    if data != again:
        problems.append("complex does not reserialize to identical bytes")
    return problems, sha(data, cert)


def build_large_expected(state: dict, item: tuple) -> str | None:
    return state["digests"].get(item_key(item))


def item_key(item: tuple) -> str:
    return ":".join(str(x) for x in item)


# -- smash_validate -----------------------------------------------------------------
#
# One generating-cell pair per op, from Mon x Mon or Mon x coMon, through
# smash_collapse(gray_labelled(a, b)), which validates the Gray product.
# The only workload dominated by `products` and by validation of complexes
# of dimension 4 to 6.  Pair costs span three orders of magnitude and a
# round takes longer than a run's budget, so a run is one round of all 36
# ordered pairs of Mon cells (a, b), b taken from coMon (as the dual of the
# Mon cell) when the two cells' positions have odd sum.  The seed sets the
# order only: letting it pick each pair's theory moved a run's tail op by
# up to 28% between seeds.


def smash_setup(seed: int, ref: dict) -> dict:
    mon = pk.builtin("MonComplex")
    comon = pk.builtin("coMonComplex")
    theories_ = {"MonComplex": mon, "coMonComplex": comon}
    pairings = (("MonComplex", "MonComplex"), ("MonComplex", "coMonComplex"))
    classes = [
        [("MonComplex", a.name, "coMonComplex", b_dual.name) if (i + j) % 2 else ("MonComplex", a.name, "MonComplex", b.name)]
        for i, a in enumerate(mon.cells)
        for j, (b, b_dual) in enumerate(zip(mon.cells, comon.cells))  # coMon lists the duals in Mon's order
        if BASEPOINT not in (a.name, b.name)
    ]
    inventories = {}
    for tx, ty in pairings:
        gx = theories_[tx].inventory()
        gy = theories_[ty].inventory()
        inventories[(tx, ty)] = pk.smash_generators(gx, gy)
    return {
        "seed": seed,
        "theories": theories_,
        "classes": classes,
        "inventories": inventories,
        "digests": ref["smash_validate"]["digests"],
    }


def smash_rounds(state: dict) -> Iterator[list]:
    return _stratified_rounds(random.Random(f"smash_validate:{state['seed']}"), state["classes"])


def smash_run(state: dict, item: tuple):
    tx, a, ty, b = item
    x = state["theories"][tx].cell(a).cell
    y = state["theories"][ty].cell(b).cell
    return pk.smash_collapse(pk.gray_labelled(x, y))


def smash_check(state: dict, item: tuple, out) -> tuple[list[str], str]:
    tx, a, ty, b = item
    problems = []
    shape = out.shape
    inventory = state["inventories"][(tx, ty)]
    top = [x for x in shape.elements() if shape.dim_of(x) == shape.dim]
    if len(top) != 1 or out.labels[top[0]] != pair_id(a, b):
        problems.append("product top cell is not labelled by the generator pair")
    for x in shape.elements():
        label = out.labels[x]
        if label != BASEPOINT and label not in inventory.get(shape.dim_of(x), ()):
            problems.append(f"label {label!r} of a {shape.dim_of(x)}-element is not in smash_generators")
            break
    data = pk.serialize.serialize_labelled(out)
    if pk.serialize.serialize_labelled(pk.serialize.parse_labelled(data)) != data:
        problems.append("labelled complex does not reserialize to identical bytes")
    return problems, sha(data)


def smash_expected(state: dict, item: tuple) -> str:
    return state["digests"][item_key(item)]


# -- interchange ------------------------------------------------------------------
#
# The small-set layers no other workload reaches.  One op runs: graycat
# (interpret of frob along both 2-orders, expr_equal, interpret_atom_in_context
# in a seeded context), orders (check_sim_substitution on power), theories
# (two tensors and seeded braid words), serialize round trips of every
# shipped fixture and of the op's own outputs, and cli.main over the
# fixture files in a seeded order.

# (argv with {name} for a fixture path, expected exit code)
CLI_CASES: tuple[tuple[tuple[str, ...], int], ...] = (
    (("validate", "{o2.json}"), 0),
    (("validate", "{u32.json}"), 0),
    (("validate", "{frob.json}"), 0),
    (("validate", "{power.json}"), 0),
    (("validate", "{mon.json}"), 2),  # a presentation file is not a complex
    (("interpret", "{frob.json}"), 0),
    (("interpret", "{u21.json}"), 1),  # not a 3-molecule
    (("tensor", "{mon.json}", "{comon.json}"), 0),
    (("boundary", "{u21.json}", "-n", "1", "-s", "+"), 0),
    (("paste", "0", "{i2.json}", "{i3.json}"), 0),
    (("paste", "1", "{u21.json}", "{u21.json}"), 1),
    (("compos", "{u22.json}"), 0),
    (("gray", "{o1.json}", "{u21.json}"), 0),
    (("maxd", "{power.json}", "1"), 0),
    (("export", "{u21.json}", "--format", "svg"), 0),
    (("atom", "ucell", "3", "2"), 0),
)

BRAID_WORDS = 12


def _fixture_roundtrip(name: str, blob: bytes) -> bytes:
    s = pk.serialize
    if name.endswith("_complex.json"):
        return s.serialize_diag_presentation(s.parse_diag_presentation(blob))
    doc = json.loads(blob)
    if "elements" in doc:
        cx, extra = s.parse_complex(blob)
        return s.serialize_complex(cx, extra)
    return s.serialize_presentation(s.parse_presentation(blob))


def interchange_setup(seed: int, ref: dict) -> dict:
    frob = fixtures.frob()
    power = fixtures.power()
    blobs = fixtures.fixture_files()
    fixture_dir = OUT_DIR / "fixtures"
    fixture_dir.mkdir(parents=True, exist_ok=True)
    for name, blob in blobs.items():
        path = fixture_dir / name
        if not path.exists() or path.read_bytes() != blob:
            path.write_bytes(blob)
    u = frob.molecule
    factor, _ = pk.frame_decomposition(u, 2, pk.k_order(u, 2))
    pcx = power.molecule.complex
    return {
        "seed": seed,
        "frob": frob,
        "power": power,
        "factor": factor,
        "contexts": [
            (frob["x"], frob["y"], frob["phi"]),
            (frob["x"], frob["phi"], frob["y"]),
        ],
        "power_sites": (
            pcx.closure([power["lam"], power["tau"]]),
            pcx.closure([power["rho"], power["beta"]]),
        ),
        "mon": pk.builtin("Mon"),
        "comon": pk.builtin("coMon"),
        "blobs": blobs,
        "cli_cases": [
            [str(fixture_dir / a[1:-1]) if a.startswith("{") else a for a in argv]
            for argv, _ in CLI_CASES
        ],
        "ref": ref["interchange"],
    }


def interchange_rounds(state: dict) -> Iterator[list]:
    rng = random.Random(f"interchange:{state['seed']}")
    op = 0
    while True:
        perms = []
        for _ in range(BRAID_WORDS):
            images = list(range(1, rng.randint(3, 8) + 1))
            rng.shuffle(images)
            perms.append(tuple(images))
        cases = list(range(len(CLI_CASES)))
        rng.shuffle(cases)
        yield [(op, rng.randrange(2), rng.randrange(2), tuple(perms), tuple(cases))]
        op += 1


def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, raw.getvalue()


def interchange_run(state: dict, item: tuple):
    _, first, ctx, perms, cases = item
    F = state["frob"]
    u = F.molecule
    orders = [pk.KOrder(2, (F["phi"], F["psi"])), pk.KOrder(2, (F["psi"], F["phi"]))]
    if first:
        orders.reverse()
    e1 = pk.interpret(u, orders[0])
    e2 = pk.interpret(u, orders[1])
    same = pk.expr_equal(e1, e2)
    atom_default = pk.interpret_atom_in_context(state["factor"])
    atom_ctx = pk.interpret_atom_in_context(state["factor"], state["contexts"][ctx])
    same_atom = pk.expr_equal(atom_default, atom_ctx)
    sim = pk.check_sim_substitution(state["power"].molecule, *state["power_sites"])
    bialg = pk.tensor_pros(state["mon"], state["comon"])
    brc = pk.tensor_pros(state["mon"], state["mon"])
    words = []
    for images in perms:
        s = pk.Permutation(images)
        sorts = tuple(f"a{i}" for i in range(s.n))
        word = pk.perm_decompose(s)
        words.append((s, word, pk.sigma_expr(s, sorts), pk.sigma_star_expr(s, sorts)))
    s = pk.serialize
    roundtrips = {name: _fixture_roundtrip(name, blob) for name, blob in state["blobs"].items()}
    exprs = {}
    for key, e in (("frob", e1 if not first else e2), ("atom", atom_default)):
        data = s.serialize_expr(e)
        exprs[key] = (data, s.serialize_expr(s.parse_expr(data, e.complex)))
    tensors = {}
    for key, p in (("bialg", bialg), ("brc", brc)):
        data = s.serialize_presentation(p)
        tensors[key] = (data, s.serialize_presentation(s.parse_presentation(data)))
    cli_out = {}
    for i in cases:
        cli_out[i] = _run_cli(state["cli_cases"][i])
    return {
        "same": same,
        "same_atom": same_atom,
        "sim": sim,
        "bialg": bialg,
        "brc": brc,
        "words": words,
        "roundtrips": roundtrips,
        "exprs": exprs,
        "tensors": tensors,
        "cli": cli_out,
    }


def interchange_digests(out: dict) -> dict:
    """Digests of the op's seed-independent outputs, as frozen in reference.json."""
    return {
        "exprs": {k: sha(data) for k, (data, _) in sorted(out["exprs"].items())},
        "tensors": {k: sha(data) for k, (data, _) in sorted(out["tensors"].items())},
        "cli": [sha(out["cli"][i][1]) for i in range(len(CLI_CASES))],
        "power_blocked_path": list(out["sim"].blocked_path or ()),
    }


def interchange_check(state: dict, item: tuple, out: dict) -> tuple[list[str], str]:
    ref = state["ref"]
    got = interchange_digests(out)
    problems = []
    if not out["same"]:
        problems.append("expr_equal fails across the two 2-orders of frob")
    if not out["same_atom"]:
        problems.append("interpret_atom_in_context depends on the context")
    sim = out["sim"]
    if sim.ok or got["power_blocked_path"] != ref["power_blocked_path"]:
        problems.append(f"power: ok={sim.ok} blocked_path={sim.blocked_path}")
    if [g.name for g in out["bialg"].generators] != ["μ⊗1", "η⊗1", "1⊗δ", "1⊗ε"]:
        problems.append("bialgebra tensor generators differ")
    if len(out["bialg"].relations) != 10 or len(out["brc"].relations) != 10:
        problems.append("tensor relation counts differ")
    for s, word, sig, sig_star in out["words"]:
        if (
            len(word) != s.inversions()
            or pk.perm_recompose(word, s.n) != s
            or pk.wire_permutation(sig) != s
            or pk.wire_permutation(sig_star) != s
        ):
            problems.append(f"braid word check fails for {s.images}")
    for name, again in out["roundtrips"].items():
        if again != state["blobs"][name]:
            problems.append(f"fixture {name} does not reserialize to identical bytes")
    parts = []
    for group in ("exprs", "tensors"):
        for key, (data, again) in sorted(out[group].items()):
            if data != again:
                problems.append(f"{key} does not reserialize to identical bytes")
            if got[group][key] != ref[group][key]:
                problems.append(f"{key} digest differs from reference")
            parts.append(data)
    for i, (code, stdout) in sorted(out["cli"].items()):
        want_code = CLI_CASES[i][1]
        if code != want_code:
            problems.append(f"cli {CLI_CASES[i][0]} exited {code}, expected {want_code}")
        if got["cli"][i] != ref["cli"][i]:
            problems.append(f"cli {CLI_CASES[i][0]} output differs from reference")
        parts.append(stdout)
    words = _dumps([[list(s.images), w] for s, w, _, _ in out["words"]])
    return problems, sha(*parts, words)


def interchange_expected(state: dict, item: tuple) -> None:
    return None  # the fixed parts are compared inside the check


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, dict], dict]
    rounds: Callable[[dict], Iterator[list]]
    run: Callable[[dict, Any], Any]
    check: Callable[[dict, Any, Any], tuple[list[str], str]]
    expected: Callable[[dict, Any], str | None]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "frame_small", frame_small_setup, frame_small_rounds, frame_small_run, frame_small_check,
            frame_small_expected,
        ),
        Workload(
            "build_large", build_large_setup, build_large_rounds, build_large_run, build_large_check,
            build_large_expected,
        ),
        Workload(
            "smash_validate", smash_setup, smash_rounds, smash_run, smash_check,
            smash_expected,
        ),
        Workload(
            "interchange", interchange_setup, interchange_rounds, interchange_run, interchange_check,
            interchange_expected,
        ),
    )
}


def load_reference() -> dict:
    return json.loads((Path(__file__).resolve().parent / "reference.json").read_text("utf-8"))
