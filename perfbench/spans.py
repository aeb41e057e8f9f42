"""Spans and counters recorded around musym's public functions.

The wrappers are installed from outside by patching module attributes,
so the library itself is unchanged.  Every span records its name,
start, end, parent and the id of the benchmark operation that caused
it; a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Spans named here build the inputs; they are recorded only when
# the CLI resolves an input, not when a basis or an ideal is built.
INPUT_FUNCTIONS = ("dplus", "delta_squares", "subdiscriminant", "specialize")
INPUT_PARENTS = ("op", "cli.main")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start, end, parent, op)
        self.stack: list[tuple[int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.active = False
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Call fn under a root span ``op``; returns (result, seconds)."""
        self.op = op_id
        self.active = True
        try:
            start = time.perf_counter()
            result = self._span("op", fn, args, {})
            return result, time.perf_counter() - start
        finally:
            self.active = False

    def _span(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)

    # -- installing wrappers -----------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None, span: bool = True):
        """Replace owner.attr by a recording wrapper.

        ``on_call(args, result)`` updates counters; with ``span=False``
        only the counter runs.
        """
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name in INPUT_FUNCTIONS and tracer.stack[-1][1] not in INPUT_PARENTS:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if span:
                result = tracer._span(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        for extra in ("cache_clear", "cache_info"):
            if hasattr(fn, extra):
                setattr(wrapper, extra, getattr(fn, extra))
        wrapper.__wrapped__ = fn
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        out = {s[0]: s[3] - s[2] for s in self.spans}
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def check_partition(self) -> list[str]:
        """Children nest in their parents without overlap, and the self
        times of each operation's spans add up to its root span."""
        problems = []
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[4] >= 0:
                p = by_id[s[4]]
                if s[2] < p[2] or s[3] > p[3] or s[5] != p[5]:
                    problems.append(f"span {s[0]} {s[1]} escapes its parent {p[0]} {p[1]}")
                children[s[4]].append(s)
            elif s[1] != "op":
                problems.append(f"span {s[0]} {s[1]} has no parent")
        for kids in children.values():
            kids.sort(key=lambda s: s[2])
            for a, b in zip(kids, kids[1:]):
                if b[2] < a[3]:
                    problems.append(f"spans {a[0]} and {b[0]} overlap")
        selfs = self.self_times()
        per_op = defaultdict(float)
        for s in self.spans:
            per_op[s[5]] += selfs[s[0]]
        for s in self.spans:
            if s[1] == "op":
                total = s[3] - s[2]
                if abs(per_op[s[5]] - total) > 1e-9 * max(1.0, len(self.spans)):
                    problems.append(f"op {s[5]}: self times sum to {per_op[s[5]]}, root is {total}")
        return problems

    def self_ms_by_name(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[1]] += selfs[s[0]] * 1000.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None, "op": op,
                }) + "\n")


def install(tracer: Tracer, musym_modules) -> None:
    """Wrap the public functions of every layer."""
    cli, gists, gistresult, groebner, linsys, polys, reduction, symfun = musym_modules
    counts = tracer.counts

    def basis_elements(args, result):
        counts["symfun.spec_basis.elements"] += len(result[0])

    def matrix_cells(args, result):
        A = args[0]
        counts["linsys.matrix_cells"] += len(A) * (len(A[0]) if A else 0)

    def reduce_loops(args, result):
        counts["reduction.reduce.loops"] += result.loops

    def basis_size(args, result):
        counts["groebner.basis_size.total"] += len(result.basis)

    tracer.wrap(symfun, "spec_basis", "symfun.spec_basis", basis_elements)
    for fname in INPUT_FUNCTIONS:
        tracer.wrap(symfun, fname, fname)
    tracer.wrap(linsys, "build_system", "linsys.build_system")
    tracer.wrap(linsys, "solve_particular", "linsys.solve_particular", matrix_cells)
    tracer.wrap(reduction, "canonize", "reduction.canonize")
    tracer.wrap(reduction, "reduce", "reduction.reduce", reduce_loops)
    tracer.wrap(reduction, "crgist", "reduction.crgist")
    tracer.wrap(reduction, "canonical_system", "reduction.canonical_system")
    tracer.wrap(groebner, "elimination_system", "groebner.elimination_system", basis_size)
    tracer.wrap(groebner, "mu_ideal_basis", "groebner.mu_ideal_basis", span=False)
    tracer.wrap(groebner, "ggist", "groebner.ggist")
    tracer.wrap(gists, "compute_gist", "gists.compute_gist")
    tracer.wrap(cli, "compute_gist", "gists.compute_gist")
    tracer.wrap(gistresult.GistResult, "from_coeffs", "gistresult.from_coeffs")
    tracer.wrap(cli, "parse_poly", "polys.parse_poly")
    tracer.wrap(cli, "poly_to_obj", "polys.poly_to_obj")
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation means of the per-layer metrics."""
    c = tracer.counts
    selfs = tracer.self_ms_by_name()
    out = {}
    for span in (
        "symfun.spec_basis", "linsys.build_system", "linsys.solve_particular",
        "reduction.canonize", "reduction.reduce", "reduction.crgist",
        "groebner.elimination_system", "groebner.ggist", "gists.compute_gist",
        "gistresult.from_coeffs", "polys.parse_poly", "polys.poly_to_obj", "cli.main",
    ):
        out[span + ".self_ms"] = selfs.get(span, 0.0) / ops
    out["symfun.inputs.self_ms"] = sum(selfs.get(n, 0.0) for n in INPUT_FUNCTIONS) / ops
    for name in (
        "symfun.spec_basis.calls", "symfun.spec_basis.elements",
        "linsys.solve_particular.calls", "linsys.matrix_cells",
        "reduction.canonize.calls", "reduction.reduce.calls", "reduction.reduce.loops",
        "groebner.elimination_system.calls",
    ):
        out[name] = c[name] / ops
    out["groebner.engine_builds"] = c["groebner.mu_ideal_basis.calls"] / ops
    elim_calls = c["groebner.elimination_system.calls"]
    out["groebner.basis_size"] = c["groebner.basis_size.total"] / elim_calls if elim_calls else 0.0
    # a canonical_system call is a hit when it did not reach canonize
    reached = {s[4] for s in tracer.spans if s[1] == "reduction.canonize"}
    systems = [s[0] for s in tracer.spans if s[1] == "reduction.canonical_system"]
    hits = sum(1 for sid in systems if sid not in reached)
    out["reduction.canonical_system.hit_ratio"] = hits / len(systems) if systems else 0.0
    return out
