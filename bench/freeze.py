#!/usr/bin/env python3
"""Regenerate bench/reference.json, the benchmark's frozen expected outputs.

    python3 bench/freeze.py [--workload NAME ...]

Run from the root of a checkout whose outputs are known to be right (the
acceptance suite passes).  Every op is run once and must pass its own
checks; its output digest is then stored.  With ``--workload`` only those
sections are recomputed and the rest of the file is kept.

* frame_small: the corpus.  Entry ``k`` is the molecule glued from the
  seed ``frame_small/<entry_seed>``; entry seeds whose molecule exceeds 40
  elements are skipped.  Each entry stores its element count, dimension,
  the number of molecules `frame_acyclic` enumerates in it, the output
  digest, and ``cost_ms``: the median of three timings of its op, taken in
  three passes over the corpus.  The runner groups entries into strata by
  ``cost_ms`` only; it is never compared with a run's timings.
* build_large: digests of every input the default seed draws in its first
  rounds (inputs beyond them are checked without a digest).
* smash_validate: digests of all generating-cell pairs.
* interchange: digests of the seed-independent outputs and the blocked
  frame path of ``power``.

A deliberate change to a serialized format updates this file in the same
change and says so.
"""
from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import run

CORPUS_SIZE = 600
COST_PASSES = 3
BUILD_LARGE_ROUNDS = 60


def _checked_digest(wl, state, item) -> tuple[object, str]:
    out = wl.run(state, item)
    problems, digest = wl.check(state, item, out)
    if problems:
        raise SystemExit(f"{wl.name} {item!r}: {problems}")
    return out, digest


def freeze_frame_small(workloads) -> dict:
    wl = workloads.WORKLOADS["frame_small"]
    corpus = []
    for entry_seed in itertools.count():
        if len(corpus) == CORPUS_SIZE:
            break
        u = workloads.glued_molecule(workloads.corpus_rng(entry_seed))
        if len(u) > 40:
            continue
        state = {"corpus": [{"entry_seed": entry_seed}]}
        (_, report, _), digest = _checked_digest(wl, state, 0)
        corpus.append({
            "entry_seed": entry_seed,
            "elements": len(u),
            "dim": u.dim,
            "checked": report.checked,
            "digest": digest,
        })
    state = {"corpus": corpus}
    timings: list[list[float]] = [[] for _ in corpus]
    for _ in range(COST_PASSES):
        for i in range(len(corpus)):
            t0 = time.perf_counter()
            wl.run(state, i)
            timings[i].append(time.perf_counter() - t0)
    for entry, ts in zip(corpus, timings):
        entry["cost_ms"] = round(1000 * statistics.median(ts), 1)
    return {"corpus": corpus}


def freeze_build_large(workloads) -> dict:
    wl = workloads.WORKLOADS["build_large"]
    state = wl.setup(run.DEFAULT_SEED, {"build_large": {"digests": {}}})
    digests = {}
    for items in itertools.islice(wl.rounds(state), BUILD_LARGE_ROUNDS):
        for item in items:
            key = workloads.item_key(item)
            if key not in digests:
                digests[key] = _checked_digest(wl, state, item)[1]
    return {"default_seed": run.DEFAULT_SEED, "rounds": BUILD_LARGE_ROUNDS, "digests": dict(sorted(digests.items()))}


def freeze_smash(workloads) -> dict:
    wl = workloads.WORKLOADS["smash_validate"]
    state = wl.setup(run.DEFAULT_SEED, {"smash_validate": {"digests": {}}})
    digests = {}
    for members in state["classes"]:
        for item in members:
            digests[workloads.item_key(item)] = _checked_digest(wl, state, item)[1]
    return {"digests": dict(sorted(digests.items()))}


def freeze_interchange(workloads) -> dict:
    wl = workloads.WORKLOADS["interchange"]
    state = wl.setup(run.DEFAULT_SEED, {"interchange": None})
    item = next(iter(wl.rounds(state)))[0]
    got = workloads.interchange_digests(wl.run(state, item))
    state["ref"] = got
    _checked_digest(wl, state, item)
    return got


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="recompute only these sections")
    args = ap.parse_args()
    run.import_library()
    import workloads

    path = Path(workloads.__file__).resolve().parent / "reference.json"
    ref = json.loads(path.read_text("utf-8")) if path.exists() else {}
    wanted = args.workload or list(workloads.WORKLOADS)
    builders = {
        "frame_small": lambda: freeze_frame_small(workloads),
        "build_large": lambda: freeze_build_large(workloads),
        "smash_validate": lambda: freeze_smash(workloads),
        "interchange": lambda: freeze_interchange(workloads),
    }
    for name in wanted:
        print(f"freezing {name}", file=sys.stderr, flush=True)
        ref[name] = builders[name]()
    path.write_text(json.dumps(ref, indent=1, ensure_ascii=False, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
