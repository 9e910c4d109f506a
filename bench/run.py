#!/usr/bin/env python3
"""pastekit's benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads are defined in ``bench/workloads.py``.  Each run is a
closed loop in one single-threaded process: ops run back to back in whole
rounds for about ``--seconds`` (the nearest whole number of rounds, at
least one), and every op's output is checked.

``--trace 0`` reports the end-to-end metrics: ops per second of busy time,
median and tail op latency, set-up time (median over fresh processes, from
process start to the moment the first op could run) and peak resident
memory.  ``--trace 1`` runs part of the time untraced, replays the same ops
with spans around pastekit's public functions, checks that both passes give
identical output digests, and reports per-layer metrics: calls and the
share of traced op time spent in each layer's own code (its self time),
plus layer counters.  Every traced run also times the chain sweep of
``build_large`` untraced, for the recognition scaling exponent; absolute
self times in seconds go to the report file.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller report, and the spans of a traced run, go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_PROBES = 5
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run
MAX_REPORTED_PROBLEMS = 20

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric prefix -> span names summed into it
LAYER_SPANS: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
    (name, (name,))
    for name in (
        "ogp.closure",
        "ogp.boundary",
        "ogp.maximal",
        "ogp.complex_init",
        "ogp.validate_complex",
        "molecules.recognize",
        "molecules.paste",
        "molecules.cell_to",
        "molecules.substitute",
        "molecules.unique_iso",
        "molecules.enumerate_molecules",
        "orders.maxd",
        "orders.frame_dimension",
        "orders.frame_acyclic",
        "orders.totally_loop_free",
        "orders.check_sim_substitution",
        "products.gray_product",
        "products.smash_collapse",
        "graycat.interpret",
        "graycat.apply_step",
        "graycat.interchanger_path",
        "graycat.expr_equal",
        "theories.tensor_pros",
        "theories.perm_decompose",
    )
) + (
    ("serialize", ("serialize.*",)),
    ("cli.main", ("cli.main",)),
)

CHAIN_POINTS = (25, 50, 100, 200)


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for prefix, _ in LAYER_SPANS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_share", "ratio")]
    out += [
        ("molecules.recognize.found_ratio", "ratio"),
        ("molecules.recognize.unknown", "count"),
        ("molecules.enumerate_molecules.pool", "count"),
        ("molecules.chain_exponent", "slope"),
    ]
    out += [(f"molecules.chain.n{n}_s", "s") for n in CHAIN_POINTS]
    out += [
        ("products.gray_product.validate_share", "ratio"),
        ("graycat.apply_step.maxd_per_call", "1/call"),
        ("serialize.bytes", "B"),
        ("cli.main.exit_nonzero", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    init = SRC / "pastekit" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no pastekit sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import pastekit

    if Path(pastekit.__file__).resolve() != init.resolve():
        raise BenchError(f"imported pastekit from {pastekit.__file__}, not from {SRC}")


@dataclass
class Record:
    item: object
    latency: float
    problems: list
    digest: str

    @property
    def ok(self) -> bool:
        return not self.problems


def run_rounds(wl, state, rounds, seconds: float, tracer=None) -> tuple[list[Record], list[list]]:
    """Run whole rounds, as many as fit ``seconds`` best (at least one).

    The run stops after a round once the time so far plus half a mean round
    reaches ``seconds``, so it holds the whole number of rounds nearest to
    ``seconds``; a round much longer than ``seconds`` runs once.
    """
    records: list[Record] = []
    done: list[list] = []
    start = time.perf_counter()
    for items in rounds:
        for item in items:
            if tracer is not None:
                tracer.begin_op(len(records))
            t0 = time.perf_counter()
            try:
                out = wl.run(state, item)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"run raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            if error is None:
                try:
                    problems, digest = wl.check(state, item, out)
                    want = wl.expected(state, item)
                    if want is not None and digest != want:
                        problems.append("output digest differs from the frozen reference")
                except Exception as exc:  # a check that raises fails the op
                    problems, digest = [f"check raised {type(exc).__name__}: {exc}"], ""
            else:
                problems, digest = [error], ""
            records.append(Record(item, latency, problems, digest))
        done.append(items)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) / 2 >= seconds:
            break
    return records, done


def latency_metrics(records: list[Record]) -> dict:
    good = [r.latency for r in records if r.ok]
    busy = sum(r.latency for r in records)
    if not good:
        return {"ops": 0, "busy_s": busy}
    tail_value, tail_pct, n = stats.tail(good)
    return {
        "ops": len(good),
        "busy_s": busy,
        "ops_per_s": len(good) / busy,
        "op_p50_ms": 1000.0 * statistics.median(good),
        "op_tail_ms": 1000.0 * tail_value,
        "tail_percentile": tail_pct,
        "tail_samples": n,
    }


def chain_points(records: list[Record]) -> dict[int, float]:
    by_n: dict[int, list[float]] = {}
    for r in records:
        if r.ok and isinstance(r.item, tuple) and r.item[0] == "chain":
            by_n.setdefault(r.item[1], []).append(r.latency)
    return {n: statistics.median(ts) for n, ts in sorted(by_n.items())}


def setup_probe(workload: str, seed: int) -> None:
    """Set the workload up as a run would, then say so and exit."""
    import_library()
    import workloads

    wl = workloads.WORKLOADS[workload]
    state = wl.setup(seed, workloads.load_reference())
    next(iter(wl.rounds(state)))
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        samples.append(elapsed)
    return samples


def layer_metrics(
    tracer, untraced: list[Record], traced: list[Record], sweep: list[Record]
) -> dict[str, float]:
    agg = tracer.aggregates()
    c = tracer.counters

    def total(names: tuple[str, ...], key: str) -> float:
        out = 0.0
        for pattern in names:
            if pattern.endswith("*"):
                out += sum(v[key] for k, v in agg.items() if k.startswith(pattern[:-1]))
            elif pattern in agg:
                out += agg[pattern][key]
        return out

    busy = sum(r.latency for r in traced)
    m: dict[str, float] = {}
    for prefix, names in LAYER_SPANS:
        m[f"{prefix}.calls"] = int(total(names, "calls"))
        m[f"{prefix}.self_share"] = total(names, "self_s") / busy
    rec_calls = m["molecules.recognize.calls"]
    m["molecules.recognize.found_ratio"] = c["molecules.recognize.found"] / rec_calls if rec_calls else 0.0
    m["molecules.recognize.unknown"] = int(c["molecules.recognize.unknown"])
    m["molecules.enumerate_molecules.pool"] = int(c["molecules.enumerate_molecules.pool"])
    points = chain_points(sweep)
    m["molecules.chain_exponent"] = stats.loglog_slope(list(points.items())) if len(points) >= 2 else 0.0
    for n in CHAIN_POINTS:
        m[f"molecules.chain.n{n}_s"] = points.get(n, 0.0)
    gray_total = total(("products.gray_product",), "total_s")
    m["products.gray_product.validate_share"] = (
        c["products.gray_product.validate_s"] / gray_total if gray_total else 0.0
    )
    steps = m["graycat.apply_step.calls"]
    m["graycat.apply_step.maxd_per_call"] = c["graycat.apply_step.maxd"] / steps if steps else 0.0
    m["serialize.bytes"] = int(c["serialize.bytes"])
    m["cli.main.exit_nonzero"] = int(c["cli.main.exit_nonzero"])
    plain = latency_metrics(untraced)
    slow = latency_metrics(traced)
    m["trace.overhead_ratio"] = slow["ops_per_s"] / plain["ops_per_s"]
    return m


def self_times(tracer, traced: list[Record]) -> dict[str, dict[str, float]]:
    """Self time per span name, in seconds and as a share of traced op time."""
    busy = sum(r.latency for r in traced)
    return {
        name: {"self_s": v["self_s"], "share": v["self_s"] / busy, "calls": v["calls"]}
        for name, v in sorted(tracer.aggregates().items(), key=lambda kv: -kv[1]["self_s"])
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def bench(args) -> int:
    import_library()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, workloads.load_reference())
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
    }
    problems: list[str] = []

    if args.trace == 0:
        setup_samples = measure_setup(args.workload, args.seed)
        records, _ = run_rounds(wl, state, wl.rounds(state), args.seconds)
        lat = latency_metrics(records)
        attempted = len(records)
        failed = sum(1 for r in records if not r.ok)
        problems += [p for r in records for p in r.problems]
        report["latency"] = lat
        report["setup_samples_s"] = setup_samples
        report["chain_points_s"] = chain_points(records)
        report["ops"] = [[repr(r.item), r.latency, r.ok] for r in records]
        if not lat["ops"]:
            metrics = {}
        else:
            metrics = {
                "ops_per_s": lat["ops_per_s"],
                "op_p50_ms": lat["op_p50_ms"],
                "op_tail_ms": lat["op_tail_ms"],
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = dict(END_TO_END)
    else:
        untraced, rounds = run_rounds(wl, state, wl.rounds(state), args.seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_rounds(wl, state, rounds, float("inf"), tracer)
        finally:
            tracer.restore()
        chains = workloads.WORKLOADS["build_large"]
        sweep, _ = run_rounds(
            chains, chains.setup(args.seed, workloads.load_reference()), [list(workloads.BUILD_LARGE_SWEEP)], 0.0
        )
        everything = untraced + traced + sweep
        attempted = len(everything)
        failed = sum(1 for r in everything if not r.ok)
        problems += [p for r in everything for p in r.problems]
        mismatched = sum(
            1 for a, b in zip(untraced, traced) if a.ok and b.ok and a.digest != b.digest
        )
        if mismatched:
            failed += mismatched
            problems.append(f"{mismatched} ops gave different output digests traced and untraced")
        self_total = sum(tracer.self_s)
        busy = sum(r.latency for r in traced)
        if self_total > busy:
            problems.append(f"span self times sum to {self_total:.6f} s, above the traced op time {busy:.6f} s")
        metrics = layer_metrics(tracer, untraced, traced, sweep) if not failed else {}
        units = dict(per_layer_units())
        spans_path = OUT_DIR / f"spans-{args.workload}.bin"
        tracer.write(spans_path)
        report["untraced"] = latency_metrics(untraced)
        report["traced"] = latency_metrics(traced)
        report["spans"] = {"file": str(spans_path.relative_to(BENCH_DIR.parent)), "count": tracer.span_count()}
        report["self_time"] = self_times(tracer, traced)
        report["self_time_over_op_time"] = self_total / busy if busy else 0.0
        report["chain_points_s"] = chain_points(sweep)

    correct = failed == 0 and not problems and bool(metrics)
    report.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted if attempted else 1.0,
        problems=problems[:MAX_REPORTED_PROBLEMS],
        metrics=metrics,
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, ensure_ascii=False, default=str) + "\n", "utf-8")

    print_summary(report, units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result, ensure_ascii=False))
    return 0


def machine_facts() -> dict:
    import os

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "processes": 1,
        "threads": 1,
        "loop": "closed, one caller, next op after the previous returns",
    }


def print_summary(report: dict, units: dict[str, str]) -> None:
    print(
        f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{report['attempted']} ops attempted, {report['failed']} failed, "
        f"error_rate {report['error_rate']:.4f}"
    )
    lat = report.get("latency")
    for name, value in report["metrics"].items():
        extra = ""
        if name == "op_tail_ms" and lat:
            extra = f"  (p{lat['tail_percentile']:.1f} of {lat['tail_samples']} samples)"
        print(f"  {name:<40} {value:>14.6g} {units[name]}{extra}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
