"""Tests of the benchmark itself, at tiny sizes: ``python3 -m pytest bench``."""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import run
import stats

run.import_library()

import pastekit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pastekit import graycat, molecules, ogp, orders  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 3] and C [4, 5]; B holds D [1.5, 2.5]
    t = tracing.Tracer(clock=FakeClock([0, 1, 1.5, 2.5, 3, 4, 5, 10]))
    a, b, c, d = (t.name_id(n) for n in "ABCD")
    t.begin_op(0)
    sa = t.open(a)
    sb = t.open(b)
    sd = t.open(d)
    t.close(sd)
    t.close(sb)
    sc = t.open(c)
    t.close(sc)
    t.close(sa)
    t.end_op()
    agg = t.aggregates()
    assert agg["A"]["self_s"] == pytest.approx(7.0)
    assert agg["B"]["self_s"] == pytest.approx(1.0)
    assert agg["C"]["self_s"] == pytest.approx(1.0)
    assert agg["D"]["self_s"] == pytest.approx(1.0)
    assert agg["A"]["total_s"] == pytest.approx(10.0)
    assert sum(t.self_s) == pytest.approx(10.0)  # self times partition the root span
    assert list(t.span_parent) == [-1, sa, sb, sa]


def test_recursive_spans_count_each_level():
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 4, 6, 9]))
    r = t.name_id("R")
    t.begin_op(3)
    outer = t.open(r)
    mid = t.open(r)
    inner = t.open(r)
    t.close(inner)
    t.close(mid)
    t.close(outer)
    t.end_op()
    agg = t.aggregates()["R"]
    assert agg["calls"] == 3
    assert agg["self_s"] == pytest.approx(9.0)
    assert list(t.span_op) == [3, 3, 3]


def test_spans_round_trip_through_the_file(tmp_path):
    t = tracing.Tracer(clock=FakeClock([0.5, 1.0, 1.25, 2.0]))
    x, y = t.name_id("x"), t.name_id("y")
    t.begin_op(7)
    sx = t.open(x)
    sy = t.open(y)
    t.close(sy)
    t.close(sx)
    t.end_op()
    path = tmp_path / "spans.bin"
    t.write(path)
    names, spans = tracing.load_spans(path)
    assert names == ["x", "y"]
    assert spans == [("x", -1, 7, 0.5, 2.0), ("y", 0, 7, 1.0, 1.25)]


# -- the tail percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(100, 90, 90.0), (11, 1, 100 / 11), (25, 15, 60.0), (1000, 990, 99.0)],
)
def test_tail_keeps_exactly_ten_samples_beyond(n, rank, percentile):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    value, pct, count = stats.tail(samples)
    assert value == rank
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(percentile)
    assert count == n


def test_tail_with_ten_samples_or_fewer_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_loglog_slope_recovers_a_power_law():
    assert stats.loglog_slope([(n, 0.01 * n**3) for n in (25, 50, 100, 200)]) == pytest.approx(3.0)


# -- wrapper install and restore ---------------------------------------------------------


def _pastekit_namespaces():
    return [m for k, m in sys.modules.items() if k == "pastekit" or k.startswith("pastekit.")]


def test_install_wraps_every_lookup_site_and_restore_undoes_it():
    originals = {
        "recognize": molecules.recognize,
        "maxd": orders.maxd,
        "closure": ogp.Complex.__dict__["closure"],
        "init": ogp.Complex.__dict__["__init__"],
    }
    t = tracing.Tracer()
    t.install()
    try:
        assert molecules.recognize is not originals["recognize"]
        assert pastekit.recognize is molecules.recognize  # the package re-export
        assert orders.mol.recognize is molecules.recognize  # looked up via the module
        assert graycat.maxd is orders.maxd  # bound by `from .orders import maxd`
        assert graycat.maxd is not originals["maxd"]
        assert ogp.Complex.__dict__["closure"] is not originals["closure"]
        cx = pastekit.globe(2)
        assert t.span_count() == 0  # outside an op nothing is recorded
        t.begin_op(0)
        got = pastekit.recognize(cx, cx.whole())
        t.end_op()
        assert isinstance(got, pastekit.Molecule)
        agg = t.aggregates()
        assert agg["molecules.recognize"]["calls"] == 1
        assert agg["ogp.maximal"]["calls"] >= 1
        assert t.counters["molecules.recognize.found"] == 1
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.restore()
    assert molecules.recognize is originals["recognize"]
    assert pastekit.recognize is originals["recognize"]
    assert graycat.maxd is originals["maxd"]
    assert ogp.Complex.__dict__["closure"] is originals["closure"]
    assert ogp.Complex.__dict__["__init__"] is originals["init"]
    for m in _pastekit_namespaces():
        assert not [k for k, v in vars(m).items() if hasattr(v, "bench_span")], m.__name__
    for k, v in vars(ogp.Complex).items():
        assert not hasattr(v, "bench_span"), k


def test_spans_close_when_the_wrapped_call_raises():
    lower, upper = pastekit.u_cell(2, 1), pastekit.u_cell(3, 1)
    t = tracing.Tracer()
    t.install()
    try:
        t.begin_op(0)
        with pytest.raises(pastekit.PastingError):
            pastekit.paste(lower, upper, 1)
        t.end_op()  # raises if a span stayed open
    finally:
        t.restore()
    assert t.aggregates()["molecules.paste"]["calls"] == 1


# -- error counting ---------------------------------------------------------------------


def _tiny_workload(fail_on: set[int], plan=None) -> workloads.Workload:
    def rounds(state):
        if plan is not None:
            yield from plan
            return
        n = 0
        while True:
            yield [n, n + 1]
            n += 2

    def op(state, item):
        if item in fail_on:
            raise pastekit.PastingError("deliberate")
        cx = pastekit.globe(1)
        return pastekit.recognize(cx, cx.whole())

    def check(state, item, out):
        problems = [] if item != 5 else ["deliberately wrong output"]
        return problems, str(len(out.members))

    return workloads.Workload("tiny", lambda seed, ref: {}, rounds, op, check, lambda s, i: None)


def test_failed_ops_count_in_error_rate(monkeypatch, capsys, tmp_path):
    plan = [[0, 1], [2, 3], [4, 5]]
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny_workload({1, 2}, plan))
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: [0.25])
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "tiny", "--seconds", "1000"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["attempted"] == 6
    assert result["failed"] == 3  # two raised, one produced a wrong output
    assert result["correct"] is False
    assert "error_rate 0.5000" in out[0]
    assert result["metrics"]["setup_s"]["value"] == 0.25


def test_digest_mismatch_against_the_reference_fails_the_op():
    wl = _tiny_workload(set())
    wrong = workloads.Workload("tiny", wl.setup, wl.rounds, wl.run, wl.check, lambda s, i: "0")
    records, done = run.run_rounds(wrong, {}, iter([[0]]), 1000)
    assert len(done) == 1
    assert records[0].problems == ["output digest differs from the frozen reference"]


def test_run_stops_between_rounds_once_time_is_up():
    records, done = run.run_rounds(_tiny_workload(set()), {}, _tiny_workload(set()).rounds({}), 0)
    assert len(records) == 2 and len(done) == 1


# -- plans and the benchmark definition --------------------------------------------------


def test_frame_small_rounds_take_one_entry_per_stratum_and_follow_the_seed():
    ref = workloads.load_reference()
    state = workloads.frame_small_setup(4, ref)
    first = next(workloads.frame_small_rounds(state))
    assert len(first) == workloads.FRAME_STRATA
    assert sorted(
        next(h for h, s in enumerate(state["strata"]) if i in s) for i in first
    ) == list(range(workloads.FRAME_STRATA))
    again = next(workloads.frame_small_rounds(workloads.frame_small_setup(4, ref)))
    other = next(workloads.frame_small_rounds(workloads.frame_small_setup(5, ref)))
    assert first == again and first != other


def test_smash_round_holds_every_ordered_pair_of_mon_cells_once():
    state = workloads.smash_setup(1, workloads.load_reference())
    pairs = [p for members in state["classes"] for p in members]
    assert len(pairs) == len(set(pairs)) == 36
    assert len({(a, b.rstrip("*").replace("δ", "μ").replace("ε", "η")) for _, a, _, b in pairs}) == 36
    assert {ty for _, _, ty, _ in pairs} == {"MonComplex", "coMonComplex"}


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
