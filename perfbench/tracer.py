"""Traced run: the workload's commands in one process, with span recorders.

Usage: python3 perfbench/tracer.py SPEC.json   (with the checkout's src on PYTHONPATH)

SPEC.json holds ``{"commands": [[name, argv], ...], "out": path}``.  The
worker imports ``knowgrow.cli`` (timed as ``cli.import_s``), replaces the
public functions listed in ``TARGETS`` with wrappers that record a span per
call, then runs each command through ``knowgrow.cli.main``.  Spans stay in
memory and are written to ``out`` at the end.  Nothing inside ``src/`` is
changed: the wrappers are installed on the module and class attributes that
callers look up at call time.

The layer table and the self-time arithmetic live here too (standard library
only at import), so the harness can turn the spans into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute) to wrap; "Class.method" wraps a method or classmethod.
# These are the functions knowgrow.cli imports plus the module globals and
# methods they call through.  growth and months functions are left out: they
# run inside fit_points calls, and wrapping them would distort those calls.
TARGETS = [
    ("knowgrow.dataio", "load_edge_list"),
    ("knowgrow.dataio", "load_category_tsv"),
    ("knowgrow.dataio", "load_citation"),
    ("knowgrow.dataio", "load_series_csv"),
    ("knowgrow.dataio", "load_id_list"),
    ("knowgrow.dataio", "load_samples"),
    ("knowgrow.dataio", "load_report"),
    ("knowgrow.dataio", "save_report"),
    ("knowgrow.dataio", "cache_get"),
    ("knowgrow.dataio", "cache_put"),
    ("knowgrow.graph_metrics", "SnapshotGraph.from_edges"),
    ("knowgrow.graph_metrics", "SnapshotGraph.out_csr"),
    ("knowgrow.graph_metrics", "SnapshotGraph.undirected_csr"),
    ("knowgrow.graph_metrics", "density"),
    ("knowgrow.graph_metrics", "mean_degree"),
    ("knowgrow.graph_metrics", "degree_entropy"),
    ("knowgrow.graph_metrics", "normalized_structural_entropy"),
    ("knowgrow.graph_metrics", "effective_diameter"),
    ("knowgrow.graph_metrics", "avg_shortest_path"),
    ("knowgrow.graph_metrics", "clustering_coefficient"),
    ("knowgrow.graph_metrics", "powerlaw_fit"),
    ("knowgrow.graph_metrics", "lognormal_fit"),
    ("knowgrow.ba", "generate"),
    ("knowgrow.ba", "compare"),
    ("knowgrow.disruption", "CitationGraph.build"),
    ("knowgrow.disruption", "d_index_all"),
    ("knowgrow.disruption", "rank"),
    ("knowgrow.disruption", "intersect_analysis"),
    ("knowgrow.taxonomy", "CategoryGraph.from_edges"),
    ("knowgrow.taxonomy", "count_members"),
    ("knowgrow.taxonomy", "detect_cycles"),
    ("knowgrow.taxonomy", "wag_root_presets"),
    ("knowgrow.fitting", "fit_points"),
    ("knowgrow.fitting", "select"),
    ("knowgrow.fitting", "forecast"),
    ("knowgrow.fitting", "segment_break"),
]

SUBCOMMANDS = ("ba", "metrics", "disrupt", "taxonomy", "intersect", "fit", "forecast", "segment")

# Per-layer metric -> the end-to-end or per-command time it should move ->
# the workloads that exercise it (the others bypass it and should show no
# change).  Per-command times (metrics_s, ...) are printed by the harness.
LAYERS = [
    # name, unit, better, moves, exercised by
    ("dataio.load_edge_list.self_s", "s", "lower", "metrics_s", "hubs long"),
    ("dataio.load_edge_list.rows_per_s", "1/s", "higher", "metrics_s", "hubs long"),
    ("graph_metrics.SnapshotGraph.from_edges.self_s", "s", "lower", "metrics_s", "hubs long"),
    ("graph_metrics.SnapshotGraph.out_csr.self_s", "s", "lower", "metrics_s", "hubs long"),
    ("graph_metrics.effective_diameter.self_s", "s", "lower", "metrics_s ba_s", "hubs long"),
    ("graph_metrics.avg_shortest_path.self_s", "s", "lower", "metrics_s", "hubs long"),
    ("graph_metrics.bfs_sources", "count", "lower", "metrics_s ba_s", "hubs long"),
    ("graph_metrics.clustering_coefficient.self_s", "s", "lower", "metrics_s ba_s", "hubs"),
    ("graph_metrics.SnapshotGraph.undirected_csr.self_s", "s", "lower", "metrics_s ba_s", "hubs"),
    ("graph_metrics.powerlaw_fit.self_s", "s", "lower", "ba_s", "hubs"),
    ("ba.generate.self_s", "s", "lower", "ba_s", "hubs"),
    ("ba.compare.self_s", "s", "lower", "ba_s", "hubs"),
    ("disruption.d_index_all.self_s", "s", "lower", "disrupt_s peak_rss_mb", "hubs"),
    ("disruption.d_index_all.calls", "count", "lower", "disrupt_s", "hubs"),
    ("disruption.rank.self_s", "s", "lower", "disrupt_s", "hubs"),
    ("disruption.CitationGraph.build.self_s", "s", "lower", "disrupt_s", "hubs"),
    ("dataio.load_citation.self_s", "s", "lower", "disrupt_s", "hubs"),
    ("taxonomy.CategoryGraph.from_edges.self_s", "s", "lower", "taxonomy_s", "hubs"),
    ("dataio.load_category_tsv.self_s", "s", "lower", "taxonomy_s", "hubs"),
    ("taxonomy.count_members.self_s", "s", "lower", "taxonomy_s", "hubs"),
    ("taxonomy.count_members.calls", "count", "lower", "taxonomy_s", "hubs"),
    ("taxonomy.detect_cycles.self_s", "s", "lower", "taxonomy_s", "hubs"),
    ("fitting.fit_points.self_s", "s", "lower", "segment_s fit_s", "long"),
    ("fitting.fit_points.calls", "count", "lower", "segment_s fit_s", "long"),
    ("fitting.segment_break.self_s", "s", "lower", "segment_s", "long"),
    ("fitting.select.self_s", "s", "lower", "fit_s", "long"),
    ("fitting.forecast.self_s", "s", "lower", "fit_s", "long"),
    ("dataio.save_report.self_s", "s", "lower", "every command", "all"),
    *[(f"cli.{c}.self_s", "s", "lower", f"{c}_s", "the workloads running it")
      for c in SUBCOMMANDS],
    ("cli.import_s", "s", "lower", "setup_s", "all"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced command time", "all"),
]


class Recorder:
    """Spans as [id, parent, trace, name, start, end, work] lists, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace = 0

    def call(self, name, fn, args, kwargs, work=None, sig=None):
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else None, self.trace, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            span[6] = work(call, result)
        return result


def _rows(call, result):
    return {"rows": result[0].rows}


def _bfs_sources(call, result):
    # sources >= n means an exhaustive pass over all n nodes
    return {"sources": min(call.arguments["sources"], call.arguments["g"].n)}


def _cache_hits(call, result):
    return {"hits": int(result is not None)}


# work counts recorded at the span boundary, from the call's bound arguments
WORK = {
    "dataio.load_edge_list": _rows,
    "graph_metrics.effective_diameter": _bfs_sources,
    "graph_metrics.avg_shortest_path": _bfs_sources,
    "dataio.cache_get": _cache_hits,
}


def install(rec: Recorder) -> None:
    """Wrap every target wherever a knowgrow module or class refers to it."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "knowgrow"]
    for mod_name, attr in TARGETS:
        mod = importlib.import_module(mod_name)
        span = f"{mod_name.split('.', 1)[1]}.{attr}"
        work = WORK.get(span)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = _wrapper(rec, span, fn, work)
            setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
            continue
        orig = getattr(mod, attr)
        wrapped = _wrapper(rec, span, orig, work)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)


def _wrapper(rec: Recorder, name: str, fn, work):
    sig = inspect.signature(fn) if work is not None else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, work, sig)
    return wrapped


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import knowgrow.cli as cli
    import_s = time.perf_counter() - t0

    rec = Recorder()
    install(rec)
    codes = []
    for trace, (name, argv) in enumerate(spec["commands"]):
        rec.trace = trace
        try:
            code = rec.call(f"cli.{name}", cli.main, (argv,), {})
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        codes.append(code)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit_codes": codes, "spans": rec.spans}, fh)
    return 0


# ---------------------------------------------------------------------------
# span arithmetic (used by the harness)


def self_times(spans: list[list]) -> tuple[list[float], list[str]]:
    """Self time per span, and the errors of the nesting and sum checks.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap, because the worker is
    single-threaded.  Each command's self times must add up to its root
    span's duration.
    """
    child_time = [0.0] * len(spans)
    errors = []
    for sid, parent, trace, name, start, end, _ in spans:
        if parent is None:
            continue
        p = spans[parent]
        if p[2] != trace or start < p[4] or end > p[5]:
            errors.append(f"span {name} ({sid}) lies outside its parent {p[3]}")
        child_time[parent] += end - start
    selfs = [s[5] - s[4] - child_time[s[0]] for s in spans]
    for root in (s for s in spans if s[1] is None):
        total = sum(selfs[s[0]] for s in spans if s[2] == root[2])
        if abs(total - (root[5] - root[4])) > 1e-9 * max(1.0, root[5] - root[4]):
            errors.append(f"{root[3]}: self times sum to {total}, traced time {root[5] - root[4]}")
    return selfs, errors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
