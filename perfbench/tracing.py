"""Spans and counts recorded from outside the solver.

``instrument`` replaces public functions of the nslsq layers with
wrappers that open a span around each call.  Every name is patched in
the module where the caller looks it up (``from x import f`` copies make
one patch per importing module), and methods are patched on their class.
The solver's own source is not changed.

Spans live in memory as ``[name, label, start, end, parent]`` rows and
are written once, by the parent driver, when the benchmark ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

LABELS = ("heat", "stokes", "linearized", "stream")


class Tracer:
    """Span stack and counters of one solve."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.first_lu = None  # first linearized LU, for its fill after the run
        self._stack: list[int] = []

    def begin(self, name: str, label: str | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, label, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def find(self, name: str) -> int:
        """Index of the first span with this name (solve-level spans occur once)."""
        return next(i for i, s in enumerate(self.spans) if s[0] == name)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


def nesting_errors(spans: list[list], slack: float = 1e-9) -> list[str]:
    """Children that leave their parent's interval or overrun its duration."""
    errors = []
    for i, s in enumerate(spans):
        p = s[4]
        if p is not None and (s[2] < spans[p][2] - slack or s[3] > spans[p][3] + slack):
            errors.append(f"span {i} ({s[0]}) outside parent {p} ({spans[p][0]})")
    for i, t in enumerate(self_times(spans)):
        if t < -slack:
            errors.append(f"span {i} ({spans[i][0]}) has negative self time {t:.3e}")
    return errors


def _wrap(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return wrapper


class _CountingLU:
    """SuperLU stand-in that counts triangular solves: a second solve within
    one ``Factorization.solve`` is an iterative-refinement step."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, b):
        self._tracer.counts["lu_solves"] += 1
        return self._lu.solve(b)


def _patch(tracer, owner, attr, name):
    setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name))


def instrument(tracer: Tracer, layers: bool):
    """Install the wrappers.

    The solve-level spans ``newton.solve`` and ``newton.prepare`` are always
    installed: they split a run into set-up and solve.  ``layers`` adds the
    per-layer spans and counts of a traced run.
    """
    from nslsq import cli, fem, linalg, mesh, newton, timestepping

    for owner in (newton, cli):
        _patch(tracer, owner, "damped_newton_solve", "newton.solve")
        _patch(tracer, owner, "residual_variant_solve", "newton.solve")
    _patch(tracer, newton, "prepare_problem", "newton.prepare")
    if not layers:
        return

    for owner in (mesh, cli):
        _patch(tracer, owner, "generate_semidisk", "mesh.generate")
        _patch(tracer, owner, "generate_unit_square", "mesh.generate")
    for owner in (fem, cli):
        _patch(tracer, owner, "build_space", "fem.build_space")
    _patch(tracer, fem, "convection_vector", "fem.convection_vector")
    _patch(tracer, fem, "convection_scalar_block", "fem.convection_block")

    ops = timestepping.Operators
    _patch(tracer, ops, "__init__", "timestepping.operators")
    _patch(tracer, ops, "linearized", "timestepping.linearized")
    _patch(tracer, newton, "steady_stokes_initial", "timestepping.initial_guess")
    _patch(tracer, newton, "unsteady_stokes_initial_guess", "timestepping.initial_guess")

    for attr, name in (("evaluate_energy", "newton.energy"),
                       ("defect_loads", "newton.defect"),
                       ("compute_corrector", "newton.corrector"),
                       ("riesz_lift", "newton.lift"),
                       ("residual_lift", "newton.lift"),
                       ("compute_direction", "newton.direction"),
                       ("compute_nonlinear_corrector", "newton.remainder"),
                       ("a0_inner", "newton.inner"),
                       ("l2v_norm_sq", "newton.inner"),
                       ("_stiffness_inner", "newton.inner"),
                       ("line_search_quartic", "newton.line_search")):
        _patch(tracer, newton, attr, name)

    for attr in ("write_history_csv", "write_triangle_format"):
        _patch(tracer, cli, attr, "cli.write")
    for attr in ("stream_function", "write_vtk"):
        _patch(tracer, cli, attr, "cli.snapshot")

    fact = linalg.Factorization
    init, solve = fact.__init__, fact.solve

    @functools.wraps(init)
    def factorize(self, matrix, label="unlabeled"):
        sid = tracer.begin("linalg.factorize", label)
        try:
            init(self, matrix, label)
        finally:
            tracer.end(sid)
        self._bench_label = label
        if label == "linearized" and tracer.first_lu is None:
            tracer.first_lu = self._lu
        self._lu = _CountingLU(self._lu, tracer)

    @functools.wraps(solve)
    def solve_traced(self, b):
        before = tracer.counts["lu_solves"]
        sid = tracer.begin("linalg.solve", self._bench_label)
        try:
            return solve(self, b)
        finally:
            tracer.end(sid)
            if tracer.counts["lu_solves"] - before > 1:
                tracer.counts["refinements"] += 1

    fact.__init__ = factorize
    fact.solve = solve_traced


def solve_window(tracer: Tracer) -> tuple[float, float, float]:
    """(start, set-up end, solve end) of the run, from the solve-level spans.

    The root span opens the run; set-up ends when ``prepare_problem``
    returns, and the solve ends when the outer loop returns.
    """
    spans = tracer.spans
    return (spans[0][2], spans[tracer.find("newton.prepare")][3],
            spans[tracer.find("newton.solve")][3])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced solve.

    Every time reported here is spent by all three workloads, so none is
    zero by construction.  Work that only some workloads do is kept as a
    count or folded into its caller: the stream-function LU into
    ``cli.output_s``, forcing loads into ``newton.prepare_s``, and the E
    loop's phase functions (energy, corrector, lift, direction, remainder)
    into ``newton.loop_s``, which the Etilde loop does inline.  Their
    spans stay in the trace file.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: Counter = Counter()
    by_label: Counter = Counter()
    calls: Counter = Counter()
    lin_ms = []
    for s, t in zip(spans, selfs):
        by_name[s[0]] += t
        calls[s[0], s[1]] += 1
        if s[1] is not None:
            by_label[s[0], s[1]] += t
        if s[0] == "linalg.factorize" and s[1] == "linearized":
            lin_ms.append(1e3 * (s[3] - s[2]))

    _, setup_end, solve_end = solve_window(tracer)
    solve_s = solve_end - setup_end
    solve_span = tracer.find("newton.solve")
    covered = sum(s[3] - s[2] for s in spans
                  if s[4] == solve_span and s[2] >= setup_end)
    solves = sum(calls["linalg.solve", lab] for lab in LABELS)
    m = {}
    for lab in LABELS:
        m[f"linalg.factorizations.{lab}"] = calls["linalg.factorize", lab]
        m[f"linalg.solves.{lab}"] = calls["linalg.solve", lab]
    for lab in LABELS[:3]:
        m[f"linalg.factorize_s.{lab}"] = by_label["linalg.factorize", lab]
        m[f"linalg.solve_s.{lab}"] = by_label["linalg.solve", lab]
    m["linalg.factorize_ms.linearized.p50"] = statistics.median(lin_ms)
    m["linalg.factorize_ms.linearized.p90"] = statistics.quantiles(
        lin_ms, n=10, method="inclusive")[8]
    lu = tracer.first_lu
    m["linalg.lu_nnz.linearized"] = lu.L.nnz + lu.U.nnz
    m["linalg.refinements"] = tracer.counts["refinements"]
    m["linalg.first_pass_ratio"] = (solves - tracer.counts["refinements"]) / solves
    m["linalg.linearized_share"] = by_label["linalg.factorize", "linearized"] / solve_s
    m["timestepping.linearized_assemble_s"] = by_name["timestepping.linearized"]
    m["timestepping.operators_s"] = by_name["timestepping.operators"]
    m["timestepping.initial_guess_s"] = by_name["timestepping.initial_guess"]
    m["fem.build_space_s"] = by_name["fem.build_space"]
    m["fem.convection_vector.calls"] = calls["fem.convection_vector", None]
    m["fem.convection_vector_s"] = by_name["fem.convection_vector"]
    m["fem.convection_block_s"] = by_name["fem.convection_block"]
    m["newton.prepare_s"] = by_name["newton.prepare"]
    m["newton.defect_s"] = by_name["newton.defect"]
    m["newton.inner_s"] = by_name["newton.inner"]
    m["newton.line_search_s"] = by_name["newton.line_search"]
    m["newton.loop_s"] = by_name["newton.solve"] + sum(
        by_name[f"newton.{phase}"]
        for phase in ("energy", "corrector", "lift", "direction", "remainder"))
    m["cli.output_s"] = spans[0][3] - solve_end
    m["mesh.generate_s"] = by_name["mesh.generate"]
    m["trace.solve_s"] = solve_s
    m["trace.solve_coverage"] = covered / solve_s
    m["trace.spans"] = len(spans)
    return m
