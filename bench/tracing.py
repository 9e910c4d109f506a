"""Spans around pastekit's public functions, recorded only in the traced run.

`Tracer.install` replaces each listed function wherever a pastekit module
holds a reference to it (so ``mol.recognize`` inside ``orders`` and the
name ``recognize`` imported into the package both resolve to the wrapper),
and replaces four `Complex` methods on the class.  `Tracer.restore` puts
every original back.  A span is recorded only while an op is open
(`Tracer.begin_op` .. `Tracer.end_op`), so the benchmark's own checks
between ops leave no spans.

Each span keeps its name, start, end, parent span and op id in flat arrays;
`Tracer.write` stores them when the run ends.  Self time is a span's
duration minus the durations of its direct children; the library is
synchronous, so children never overlap and that difference is exact.
"""
from __future__ import annotations

import array
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (defining module, function, span name)
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("pastekit.ogp", "validate_complex", "ogp.validate_complex"),
    ("pastekit.molecules", "recognize", "molecules.recognize"),
    ("pastekit.molecules", "paste", "molecules.paste"),
    ("pastekit.molecules", "cell_to", "molecules.cell_to"),
    ("pastekit.molecules", "substitute", "molecules.substitute"),
    ("pastekit.molecules", "unique_iso", "molecules.unique_iso"),
    ("pastekit.molecules", "enumerate_molecules", "molecules.enumerate_molecules"),
    ("pastekit.molecules", "certificate_ok", "molecules.certificate_ok"),
    ("pastekit.molecules", "compos", "molecules.compos"),
    ("pastekit.orders", "maxd", "orders.maxd"),
    ("pastekit.orders", "frame_dimension", "orders.frame_dimension"),
    ("pastekit.orders", "frame_acyclic", "orders.frame_acyclic"),
    ("pastekit.orders", "frame_decomposition", "orders.frame_decomposition"),
    ("pastekit.orders", "totally_loop_free", "orders.totally_loop_free"),
    ("pastekit.orders", "check_sim_substitution", "orders.check_sim_substitution"),
    ("pastekit.products", "gray_product", "products.gray_product"),
    ("pastekit.products", "gray_labelled", "products.gray_labelled"),
    ("pastekit.products", "smash_collapse", "products.smash_collapse"),
    ("pastekit.graycat", "interpret", "graycat.interpret"),
    ("pastekit.graycat", "interpret_atom_in_context", "graycat.interpret_atom_in_context"),
    ("pastekit.graycat", "apply_step", "graycat.apply_step"),
    ("pastekit.graycat", "interchanger_path", "graycat.interchanger_path"),
    ("pastekit.graycat", "expr_equal", "graycat.expr_equal"),
    ("pastekit.theories", "tensor_pros", "theories.tensor_pros"),
    ("pastekit.theories", "perm_decompose", "theories.perm_decompose"),
    ("pastekit.theories", "sigma_expr", "theories.sigma_expr"),
    ("pastekit.serialize", "serialize_complex", "serialize.serialize_complex"),
    ("pastekit.serialize", "parse_complex", "serialize.parse_complex"),
    ("pastekit.serialize", "serialize_labelled", "serialize.serialize_labelled"),
    ("pastekit.serialize", "parse_labelled", "serialize.parse_labelled"),
    ("pastekit.serialize", "serialize_presentation", "serialize.serialize_presentation"),
    ("pastekit.serialize", "parse_presentation", "serialize.parse_presentation"),
    ("pastekit.serialize", "serialize_diag_presentation", "serialize.serialize_diag_presentation"),
    ("pastekit.serialize", "parse_diag_presentation", "serialize.parse_diag_presentation"),
    ("pastekit.serialize", "serialize_expr", "serialize.serialize_expr"),
    ("pastekit.serialize", "parse_expr", "serialize.parse_expr"),
    ("pastekit.cli", "main", "cli.main"),
)

# (Complex method, span name)
METHODS: tuple[tuple[str, str], ...] = (
    ("__init__", "ogp.complex_init"),
    ("closure", "ogp.closure"),
    ("boundary", "ogp.boundary"),
    ("maximal", "ogp.maximal"),
)

_SPAN_FORMAT = (("name", "H"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Records spans and per-name aggregates while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = -1  # id of the open op, -1 outside ops
        # span columns
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        # aggregates by name id
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.depth: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []  # open span indices
        self._child: list[float] = []  # child time of each open span
        self._patched: list[tuple[Any, str, Any]] = []

    # -- names ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.depth.append(0)
        return nid

    # -- spans ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        if self._stack:
            raise RuntimeError("op ended with open spans")
        self.op = -1

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.depth[nid] += 1
        return idx

    def close(self, idx: int) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        child = self._child.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.depth[nid] -= 1
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if self._child:
            self._child[-1] += dur
        return dur

    def inside(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and self.depth[nid] > 0

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn: Callable, name: str, on_exit: Callable | None = None) -> Callable:
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(idx)
            if on_exit is not None:
                on_exit(tracer, result, dur)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.bench_span = name
        return traced

    def install(self) -> None:
        """Wrap every listed function and method; see the module docstring."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "pastekit" or key.startswith("pastekit."))
        ]
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, span, _EXIT_HOOKS.get(span))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)
        from pastekit.ogp import Complex

        for attr, span in METHODS:
            original = Complex.__dict__[attr]
            self._patched.append((Complex, attr, original))
            setattr(Complex, attr, self.wrap(original, span))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def aggregates(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
        }

    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the columns as raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": self.span_count(),
            "columns": [[col, code] for col, code in _SPAN_FORMAT],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for col, _ in _SPAN_FORMAT:
                getattr(self, f"span_{col}").tofile(fh)


def load_spans(path: Path) -> tuple[list[str], list[tuple]]:
    """Read a span file back as ``(names, [(name, parent, op, start, end), ...])``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        cols = []
        for _, code in header["columns"]:
            col = array.array(code)
            col.fromfile(fh, count)
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            cols.append(col)
    names = header["names"]
    return names, [(names[n], p, o, s, e) for n, p, o, s, e in zip(*cols)]


# -- counters fed by return values -------------------------------------------


def _recognize_exit(tracer: Tracer, result, dur: float) -> None:
    from pastekit.molecules import UNKNOWN, Molecule

    if isinstance(result, Molecule):
        tracer.counters["molecules.recognize.found"] += 1
    elif result is UNKNOWN:
        tracer.counters["molecules.recognize.unknown"] += 1


def _enumerate_exit(tracer: Tracer, result, dur: float) -> None:
    tracer.counters["molecules.enumerate_molecules.pool"] += len(result[0])


def _validate_exit(tracer: Tracer, result, dur: float) -> None:
    if tracer.inside("products.gray_product"):
        tracer.counters["products.gray_product.validate_s"] += dur


def _maxd_exit(tracer: Tracer, result, dur: float) -> None:
    if tracer.inside("graycat.apply_step"):
        tracer.counters["graycat.apply_step.maxd"] += 1


def _serialize_exit(tracer: Tracer, result, dur: float) -> None:
    tracer.counters["serialize.bytes"] += len(result)


def _cli_exit(tracer: Tracer, result, dur: float) -> None:
    if result != 0:
        tracer.counters["cli.main.exit_nonzero"] += 1


_EXIT_HOOKS = {
    "molecules.recognize": _recognize_exit,
    "molecules.enumerate_molecules": _enumerate_exit,
    "ogp.validate_complex": _validate_exit,
    "orders.maxd": _maxd_exit,
    "cli.main": _cli_exit,
    **{
        span: _serialize_exit
        for _, attr, span in FUNCTIONS
        if attr.startswith("serialize_")
    },
}
