"""Spans around hoplog's layer entry points, for the traced run only.

``install`` replaces the entry points that ``hoplog.cli`` and
``hoplog.extensionality`` look up in their own module namespaces with
wrappers that record a span per call.  It is called inside a query's forked
child, so the wrappers never outlive one query.  A missing entry point
raises at once: a refactor must not silently zero a layer.

Each span is ``[name, start, end, parent, query id, counts]``; ``parent`` is
the index of the enclosing span in the same list, -1 for the root.  Counts
are read from the objects the entry points return, once the query is over,
so that counting adds nothing to any span.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute, span name).  The extensionality checker looks up the
# grounder and WFS entry points in its own namespace, so those are wrapped
# there too.
ENTRY_POINTS = (
    ("hoplog.cli", "parse_program", "parser"),
    ("hoplog.cli", "check_program", "typecheck"),
    ("hoplog.cli", "ground_instantiation", "grounder.exhaustive"),
    ("hoplog.cli", "relevant_grounding", "grounder.demand"),
    ("hoplog.cli", "well_founded_model", "wfs"),
    ("hoplog.cli", "stratify", "perfect.stratify"),
    ("hoplog.cli", "localize", "perfect.localize"),
    ("hoplog.cli", "perfect_model", "perfect.model"),
    ("hoplog.cli", "ExtChecker.reflexivity_report", "extensionality"),
    ("hoplog.extensionality", "relevant_grounding", "grounder.demand"),
    ("hoplog.extensionality", "well_founded_model", "wfs"),
)

# Span names grouped into the layers the benchmark reports.
LAYER_OF = {
    "cli": "cli",
    "parser": "parser",
    "typecheck": "typecheck",
    "grounder.exhaustive": "grounder",
    "grounder.demand": "grounder",
    "wfs": "wfs",
    "perfect.stratify": "perfect",
    "perfect.localize": "perfect",
    "perfect.model": "perfect",
    "extensionality": "extensionality",
}

# Layers each workload is built to load.
TARGET_LAYERS = {
    "game-wfs": ("grounder", "wfs"),
    "strat-perfect": ("grounder", "perfect"),
    "extcheck-ho": ("extensionality",),
}

PER_LAYER_METRICS = (
    ("grounder.exhaustive_s", "s"),
    ("grounder.demand_s", "s"),
    ("grounder.clauses", "count"),
    ("grounder.dead_clauses", "count"),
    ("grounder.live_share", "ratio"),
    ("grounder.atoms", "count"),
    ("wfs.s", "s"),
    ("wfs.calls", "count"),
    ("wfs.outer_stages", "count"),
    ("wfs.inner_rounds", "count"),
    ("perfect.stratify_s", "s"),
    ("perfect.localize_s", "s"),
    ("perfect.model_s", "s"),
    ("perfect.strata", "count"),
    ("extensionality.self_s", "s"),
    ("extensionality.checked_terms", "count"),
    ("extensionality.oracle_solves", "count"),
    ("extensionality.unknowns", "count"),
    ("parser.s", "s"),
    ("typecheck.s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("layers.target_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


class Recorder:
    """Spans of one query, kept in memory until the query ends."""

    def __init__(self, qid: int):
        self.qid = qid
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, perf_counter(), None, parent, self.qid, {}]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        span[5] = result
        return result

    def finish(self) -> list[list]:
        """Replace each span's returned object by its counts."""
        for span in self.spans:
            span[5] = _counts(span[5])
        return self.spans


def _result_types():
    from hoplog.extensionality import ExtReport
    from hoplog.grounder import ConstLit, GroundProgram
    from hoplog.perfect import Stratification
    from hoplog.wfs import WfsResult

    return ConstLit, ExtReport, GroundProgram, Stratification, WfsResult


def _counts(result) -> dict:
    ConstLit, ExtReport, GroundProgram, Stratification, WfsResult = _result_types()
    if isinstance(result, GroundProgram):
        dead = sum(
            1
            for gc in result.clauses
            if any(isinstance(lit, ConstLit) and not lit.value for lit in gc.body)
        )
        return {"clauses": len(result.clauses), "dead_clauses": dead, "atoms": len(result.atoms)}
    if isinstance(result, WfsResult):
        trace = result.trace
        return {"outer_stages": trace.fixpoint_stage, "inner_rounds": sum(trace.inner_lengths)}
    if isinstance(result, Stratification):
        return {"strata": result.count}
    if isinstance(result, ExtReport):
        return {"checked_terms": result.checked_terms, "unknowns": len(result.unknowns)}
    return {}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not hasattr(owner, attr):
        raise RuntimeError(f"traced entry point {module_name}.{path} is missing")
    return owner, attr


def check_entry_points() -> None:
    """Raise RuntimeError unless every entry point in ENTRY_POINTS and every
    result type the counts are read from exists."""
    for module_name, path, _name in ENTRY_POINTS:
        _resolve(module_name, path)
    try:
        _result_types()
    except ImportError as exc:
        raise RuntimeError(f"a traced result type is missing: {exc}") from None


def install(recorder: Recorder) -> None:
    """Wrap every entry point in ENTRY_POINTS so each call records a span."""
    for module_name, path, name in ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, _name=name, _fn=original, **kwargs):
            return recorder.call(_name, _fn, *args, **kwargs)

        setattr(owner, attr, wrapper)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add up
    without overlap."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans: list[list], index: int, layer: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if LAYER_OF[spans[parent][0]] == layer:
            return True
        parent = spans[parent][3]
    return False


def per_layer(workload: str, queries: list[dict], overhead_share: float) -> dict:
    """Per-query means of layer self times and counts over traced queries.

    Every query contributes one root span named ``cli``; ``queries`` holds
    each query's spans, output size and the factor that scales its times
    to reference speed.
    """
    totals = {name: 0.0 for name, _ in PER_LAYER_METRICS}
    layer_self: dict[str, float] = {}
    traced_total = 0.0
    for q in queries:
        spans = q["spans"]
        own = [t * q["scale"] for t in self_times(spans)]
        traced_total += (spans[0][2] - spans[0][1]) * q["scale"]
        totals["cli.output_bytes"] += q["output_bytes"]
        for i, (name, _start, _end, _parent, _qid, counts) in enumerate(spans):
            layer = LAYER_OF[name]
            layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
            if name.startswith("grounder."):
                totals[name + "_s"] += own[i]
                totals["grounder.clauses"] += counts["clauses"]
                totals["grounder.dead_clauses"] += counts["dead_clauses"]
                if name == "grounder.demand":
                    totals["grounder.atoms"] += counts["atoms"]
            elif name == "wfs":
                totals["wfs.s"] += own[i]
                totals["wfs.calls"] += 1
                totals["wfs.outer_stages"] += counts["outer_stages"]
                totals["wfs.inner_rounds"] += counts["inner_rounds"]
                if _under(spans, i, "extensionality"):
                    totals["extensionality.oracle_solves"] += 1
            elif name.startswith("perfect."):
                totals[name + "_s"] += own[i]
                totals["perfect.strata"] += counts.get("strata", 0)
            elif name == "extensionality":
                totals["extensionality.self_s"] += own[i]
                totals["extensionality.checked_terms"] += counts["checked_terms"]
                totals["extensionality.unknowns"] += counts["unknowns"]
            elif name in ("parser", "typecheck"):
                totals[name + ".s"] += own[i]
            elif name == "cli":
                totals["cli.self_s"] += own[i]
    n = len(queries)
    clauses = totals["grounder.clauses"]
    out = {name: totals[name] / n for name, _ in PER_LAYER_METRICS}
    out["grounder.live_share"] = (
        (clauses - totals["grounder.dead_clauses"]) / clauses if clauses else 0.0
    )
    target = sum(layer_self.get(layer, 0.0) for layer in TARGET_LAYERS[workload])
    out["layers.target_share"] = target / traced_total
    out["trace.overhead_share"] = overhead_share
    return out
