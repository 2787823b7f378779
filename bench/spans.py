"""Spans around the public functions of each ``spectral_limits`` layer.

A ``Tracer`` replaces a function at the name binding its callers use (for
example ``experiments.gamma_N_eps``, which ``experiments.build_graph`` looks
up at call time) with a wrapper that records a span: name, start, end, the
enclosing span and a run id.  Spans stay in memory until the run ends.
Nothing under ``src/`` changes; ``Tracer.restore`` puts the originals back.

The workloads run their cells on one thread, so one stack of open spans is
enough to find each span's parent.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

MB = float(1 << 20)


class Tracer:
    """Records spans.  With ``alloc`` the spans wrapped with ``alloc=True``
    run under tracemalloc and record their allocation peak; without it no
    span does, so the recorded times are free of tracemalloc's cost."""

    def __init__(self, run_id: str, alloc: bool = False):
        self.run_id = run_id
        self.alloc = alloc
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, attrs=None, alloc=False):
        """Trace ``owner.attr`` as span ``name``.

        ``attrs(result, args)`` adds fields, such as counts, to the span.
        With ``alloc``, and the tracer's ``alloc`` set, the span records the
        tracemalloc peak of the call.
        """
        fn = getattr(owner, attr)
        alloc = alloc and self.alloc
        spans, stack, run_id = self.spans, self._open, self.run_id

        def traced(*args, **kwargs):
            rec = {"id": len(spans), "parent": stack[-1] if stack else None,
                   "name": name, "run": run_id}
            spans.append(rec)
            stack.append(rec["id"])
            started = alloc and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                if started:
                    rec["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if attrs is not None:
                rec.update(attrs(result, args))
            return result

        traced.__wrapped__ = fn
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def install(tracer: Tracer):
    """Wrap every traced layer function at the binding its caller uses."""
    from spectral_limits import cli, experiments, graph, regularity
    from spectral_limits.geometry import ManifoldModel

    def estimate(res, args):
        return {"value": res.value, "stderr": res.stderr}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(experiments, "sample_dataset", "sampling.sample_dataset")
    tracer.wrap(experiments, "reference_spectrum_for",
                "reference.reference_spectrum_for")
    tracer.wrap(experiments, "gamma_N_eps", "graph.gamma_N_eps", alloc=True,
                attrs=lambda g, args: {"n": g.n_vertices, "edges": int(len(g.edges))})
    tracer.wrap(graph, "build_edges", "graph.build_edges")
    tracer.wrap(experiments, "eigen_decompose", "spectral.eigen_decompose",
                attrs=lambda r, args: {"n": args[0].n_vertices,
                                       "max_residual": float(max(r.residuals))})
    tracer.wrap(experiments, "certify", "regularity.certify", alloc=True)
    for fn in ("doubling_constant", "poincare_constant", "almost_regularity",
               "moser_check"):
        tracer.wrap(regularity, fn, f"regularity.{fn}")
    tracer.wrap(experiments, "v_p_eps", "distortion.v_p_eps", attrs=estimate)
    tracer.wrap(experiments, "s_eps", "distortion.s_eps", attrs=estimate)
    tracer.wrap(ManifoldModel, "geodesic_to_many", "geometry.geodesic_to_many",
                attrs=lambda d, args: {"pairs": int(len(args[2]))})


# ---------------------------------------------------------------------------
# derived numbers


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its direct children cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def cells(spans, root_id: int, opener: str) -> list:
    """Durations of the (n, seed) cells under the root span.

    A cell is the run of top-level spans from one ``opener`` span to the
    span before the next; it lasts from its first span's start to its last
    span's end.
    """
    groups = []
    for s in sorted((s for s in spans if s["parent"] == root_id),
                    key=lambda s: s["start"]):
        if s["name"] == opener:
            groups.append([s])
        elif groups:
            groups[-1].append(s)
    return [g[-1]["end"] - g[0]["start"] for g in groups]


def layer_metrics(spans, cell_opener: str) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name."""
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != "cli.main":
        raise ValueError("expected a single cli.main root span")
    root = roots[0]
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def largest(name, field, scale=1.0):
        return max((s.get(field, 0.0) / scale for s in named(name)), default=0.0)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    wall = root["end"] - root["start"]
    top = [(s["start"], s["end"]) for s in spans if s["parent"] == root["id"]]
    edges = sum(s["edges"] for s in named("graph.gamma_N_eps"))
    pairs = sum(s["pairs"] for s in named("geometry.geodesic_to_many"))
    moser_calls = [s["end"] - s["start"] for s in named("regularity.moser_check")]
    cell_s = cells(spans, root["id"], cell_opener)
    return {
        "sampling.sample_s": total("sampling.sample_dataset"),
        "reference.build_s": total("reference.reference_spectrum_for"),
        "graph.build_s": total("graph.gamma_N_eps"),
        "graph.edge_search_s": total("graph.build_edges"),
        "graph.validate_s": sum(selfs[s["id"]] for s in named("graph.gamma_N_eps")),
        "graph.edges": edges,
        "graph.edges_per_s": per_s(edges, total("graph.gamma_N_eps")),
        "graph.peak_alloc_mb": largest("graph.gamma_N_eps", "alloc_peak", MB),
        "spectral.eigsolve_s": total("spectral.eigen_decompose"),
        "spectral.max_residual": largest("spectral.eigen_decompose", "max_residual"),
        "regularity.certify_s": total("regularity.certify"),
        "regularity.doubling_s": total("regularity.doubling_constant"),
        "regularity.poincare_s": total("regularity.poincare_constant"),
        "regularity.moser_s": total("regularity.moser_check"),
        "regularity.moser_calls": len(moser_calls),
        "regularity.moser_call_s.p50": statistics.median(moser_calls) if moser_calls else 0.0,
        "regularity.moser_call_s.max": max(moser_calls, default=0.0),
        "regularity.almost_s": total("regularity.almost_regularity"),
        "regularity.peak_alloc_mb": largest("regularity.certify", "alloc_peak", MB),
        "distortion.v_p_eps_s": total("distortion.v_p_eps"),
        "distortion.s_eps_s": total("distortion.s_eps"),
        "distortion.v_stderr": largest("distortion.v_p_eps", "stderr"),
        "distortion.s_stderr": largest("distortion.s_eps", "stderr"),
        "geometry.geodesic_s": total("geometry.geodesic_to_many"),
        "geometry.geodesic_pairs": pairs,
        "geometry.geodesic_pairs_per_s": per_s(pairs, total("geometry.geodesic_to_many")),
        "experiments.cells": len(cell_s),
        "experiments.cell_s.p50": statistics.median(cell_s) if cell_s else 0.0,
        "experiments.cell_s.max": max(cell_s, default=0.0),
        "experiments.self_s": selfs[root["id"]],
        "trace.coverage_frac": covered(top, root["start"], root["end"]) / wall,
    }
