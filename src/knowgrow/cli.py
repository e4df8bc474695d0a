"""Command-line interface: one executable, one subcommand per pipeline.

Outputs are deterministic given identical inputs and ``--seed``.  Exit
codes: 0 success, 1 data/processing error (diagnostic on stderr), 2 usage
error (argparse).  ``--json`` writes the full machine-readable report,
``--plot-csv`` writes the x,y table behind the figure-like output of the
subcommand, and stdout carries a short human summary unless ``--quiet``.

Each command runs in a fresh process, often without a bytecode cache, so
numpy and `dataio` are the only eager imports: the domain modules are bound
with ``knowgrow._lazy`` and a command executes only those it calls
(``fit``, ``forecast`` and ``segment`` run `fitting`, `growth` and `_brent`;
``metrics`` and ``distfit`` `graph_metrics` and `_brent`; ``ba`` those two
and `ba`; ``taxonomy`` `taxonomy`; ``disrupt`` and ``intersect``
`disruption`; ``--version`` none).  Bind a new module with ``_lazy`` below
and call it module-qualified, never import it inside a handler: the
benchmark's tracer wraps functions only in the modules registered once this
module is imported.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, _lazy
from .dataio import (
    Dataset,
    _atomic_write,
    _write_edges,
    cache_get,
    cache_put,
    load_category_tsv,
    load_citation,
    load_edge_list,
    load_id_list,
    load_report,
    load_samples,
    load_series_csv,
    report_bytes,
    save_report,
)

# executed on first attribute access; _brent, which only fitting and
# graph_metrics call, is registered here so the tracer sees it too
_brent = _lazy("knowgrow._brent")
ba = _lazy("knowgrow.ba")
disruption = _lazy("knowgrow.disruption")
fitting = _lazy("knowgrow.fitting")
graph_metrics = _lazy("knowgrow.graph_metrics")
growth = _lazy("knowgrow.growth")
months = _lazy("knowgrow.months")
taxonomy = _lazy("knowgrow.taxonomy")

SERIES_FORMAT = "CSV with header 'date,value'; date is ISO YYYY-MM, months consecutive"
EDGES_FORMAT = "TSV 'src<TAB>dst', one arc per line, opaque string node ids"
CATEGORY_FORMAT = "TSV 'child<TAB>parent<TAB>kind' with kind of child in {article, category}"
NODES_FORMAT = "TSV 'id<TAB>year[<TAB>field]'"
CITES_FORMAT = "TSV 'citing<TAB>cited'"
IDSET_FORMAT = "one paper id per line"
SAMPLES_FORMAT = "one positive integer per line"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write_csv(path: str, header: list[str], *columns) -> None:
    """One CSV row per position of ``columns``, which must be of equal length."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_cell, row)) for row in zip(*columns, strict=True))
    _atomic_write(path, [("\n".join(lines) + "\n").encode()])


def _parse_year_range(args) -> tuple[int, int] | None:
    if args.year_min is None and args.year_max is None:
        return None
    lo = disruption.YEAR_RANGE[0] if args.year_min is None else args.year_min
    hi = disruption.YEAR_RANGE[1] if args.year_max is None else args.year_max
    if lo > hi:
        raise ValueError(f"empty year range: --year-min {lo} > --year-max {hi}")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommand handlers: each writes its own --plot-csv and returns its report
# as (kind, inputs, payload, summary lines); main writes --json and stdout

Report = tuple[str, list[Dataset], dict, list[str]]


def cmd_fit(args) -> Report:
    ds, series = load_series_csv(args.input)
    if args.family == "auto":
        # leave out what fit_points rejects: log space on y <= 0, too few points
        positive = all(v > 0 for v in series.values)
        families = [
            f
            for f in growth.STANDARD_FAMILIES
            if (positive or not growth.family_spec(f).log_space)
            and growth.family_spec(f).arity + 2 <= len(series)
        ]
        if not families:
            raise ValueError(f"no family fits a series of {len(series)} points")
    else:
        families = [args.family]
    ranked = fitting.select(series.t, series.y, families, series.origin)
    best = ranked[0]
    payload = {
        "best": best.to_json(),
        "ranking": [
            {"family": r.model.family, "mape": r.mape, "rmse": r.rmse,
             "converged": r.converged, "at_bound": r.at_bound}
            for r in ranked
        ],
        "series": series.to_json(),
    }
    if args.plot_csv:
        _write_csv(args.plot_csv, ["date", "actual", "fitted"],
                   map(series.month_at, range(1, len(series) + 1)),
                   series.values, best.predictions)
    return "fit_result", [ds], payload, [
        f"best family: {best.model.family}  params={tuple(round(p, 6) for p in best.model.params)}",
        f"mape={best.mape:.3e}  signed_mpe={best.signed_mpe:+.3e}  rmse={best.rmse:.4g}",
    ]


def cmd_forecast(args) -> Report:
    if bool(args.fit) == bool(args.model):
        raise ValueError("provide exactly one of --fit or --model")
    if args.fit:
        if args.from_month:
            raise ValueError("--from applies to --model only")
        doc = load_report(args.fit)
        if doc.get("kind") != "fit_result":
            raise ValueError(f"--fit needs a fit_result report; {args.fit} is {doc.get('kind')!r}")
        result = fitting.FitResult.from_json(doc["payload"]["best"])
        series = fitting.forecast(result, args.until)
        model = result.model
    else:
        catalog = growth.model_catalog()
        if args.model not in catalog:
            raise ValueError(f"unknown catalog model {args.model!r}; have {sorted(catalog)}")
        model = catalog[args.model]
        if not args.from_month:
            raise ValueError("--from is required with --model")
        t0 = months.month_index(model.t_origin, args.from_month)
        t1 = months.month_index(model.t_origin, args.until)
        if t1 < t0:
            raise ValueError("--until precedes --from")
        tt = np.arange(t0, t1 + 1, dtype=float)
        values = np.asarray(model.evaluate(tt), dtype=float)
        series = fitting.TimeSeries(origin=args.from_month, values=tuple(values), label=args.model)
    payload = {"model": model.to_json(), "forecast": series.to_json()}
    if args.plot_csv:
        _write_csv(args.plot_csv, ["date", "value"],
                   map(series.month_at, range(1, len(series) + 1)), series.values)
    return "forecast", [], payload, [f"{series.month_at(len(series))}: {series.values[-1]:,.0f}"]


# the shape of a metrics payload, but "clustering", which --no-clustering leaves out
BY_DIRECTION = dict.fromkeys(("in", "out", "total"), float)
METRICS_SHAPE = {"n": int, "arcs": int, "self_loops": int, "duplicates_dropped": int,
                 "density": float, "mean_degree": float, "degree_entropy": BY_DIRECTION,
                 "normalized_structural_entropy": BY_DIRECTION, "effective_diameter": int,
                 "avg_shortest_path": float}


def cmd_metrics(args) -> Report:
    ds, g = load_edge_list(args.edges, undirected=args.undirected)
    params = {
        "quantile": args.quantile,
        "sources": args.sources,
        "seed": args.seed,
        "undirected": args.undirected,
        "clustering": not args.no_clustering,
    }
    shape = METRICS_SHAPE if args.no_clustering else {**METRICS_SHAPE, "clustering": float}
    cached = cache_get("metrics", ds.digest, params, shape)
    if cached is not None:
        payload = json.loads(cached)["payload"]
    else:
        payload = {
            "n": g.n,
            "arcs": g.arc_count,
            "self_loops": g.self_loop_count,
            "duplicates_dropped": g.duplicate_count,
            "density": graph_metrics.density(g),
            "mean_degree": graph_metrics.mean_degree(g),
            "degree_entropy": {d: graph_metrics.degree_entropy(g, d) for d in BY_DIRECTION},
            "normalized_structural_entropy": {d: graph_metrics.normalized_structural_entropy(g, d)
                                              for d in BY_DIRECTION},
            "effective_diameter": graph_metrics.effective_diameter(g, args.quantile,
                                                                   args.sources, args.seed),
            "avg_shortest_path": graph_metrics.avg_shortest_path(g, args.sources, args.seed),
        }
        if not args.no_clustering:
            payload["clustering"] = graph_metrics.clustering_coefficient(g)
        cache_put("metrics", ds.digest, params, report_bytes(payload, "metrics", [ds]))
    if args.plot_csv:
        _write_csv(args.plot_csv, ["degree", "count"],
                   *np.unique(g.degrees("total"), return_counts=True))
    return "metrics", [ds], payload, [
        f"n={payload['n']}  arcs={payload['arcs']}  density={payload['density']:.4g}",
        f"effective_diameter={payload['effective_diameter']}  "
        f"avg_shortest_path={payload['avg_shortest_path']:.3f}",
        f"degree_entropy(total)={payload['degree_entropy']['total']:.4f}",
    ]


def cmd_ba(args) -> Report:
    params = ba.BAParams(n=args.nodes, m=args.m, seed=args.seed)
    g = ba.generate(params)
    report = ba.compare(g, params, sources=args.sources)
    if args.edges_out:
        _write_edges(args.edges_out, g)
    if args.plot_csv:
        from scipy.special import zeta

        deg = g.degrees("out")
        ks, ccdf_emp = graph_metrics.empirical_ccdf(np.sort(deg))
        ccdf_theory = 2.0 * params.m**2 * zeta(3.0, ks.astype(float))
        _write_csv(args.plot_csv, ["degree", "ccdf_empirical", "ccdf_reference"],
                   ks, ccdf_emp, ccdf_theory)
    summary = [f"BA n={params.n} m={params.m} seed={params.seed}: "
               f"{report['undirected_edges']} undirected edges"]
    for row in report["rows"]:
        flag = "" if row["within_band"] else "  [outside band]"
        summary.append(
            f"  {row['metric']:<20} {row['empirical']:.4g} vs {row['reference']:.4g} "
            f"(ratio {row['ratio']:.2f}){flag}"
        )
    return "ba_compare", [], report, summary


def cmd_disrupt(args) -> Report:
    year_range = _parse_year_range(args)
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    (dsn, dse), g = load_citation(args.nodes, args.edges)
    counts, d = disruption.d_index_all(g)
    citations = g.citation_counts()
    rows = disruption.rank(g, d if args.key == "disruption" else citations, args.top, year_range)
    payload = {
        "papers": len(g),
        "key": args.key,
        "year_range": list(year_range) if year_range else None,
        "top": [
            {"paper": g.ids[i], "citations": int(citations[i]), "n_i": n_i, "n_j": n_j,
             "n_k": n_k, "d": float(d[i]), "defined": n_i + n_j + n_k > 0}
            for i, (n_i, n_j, n_k) in zip(rows.tolist(), counts[rows].tolist())
        ],
    }
    if args.plot_csv:
        hist, edges = np.histogram(d[counts.sum(axis=1) > 0], bins=40, range=(-1.0, 1.0))
        _write_csv(args.plot_csv, ["d_bin_left", "count"], edges[:-1], hist)
    summary = [f"{len(g)} papers; top {len(rows)} by {args.key}:"]
    for entry in payload["top"][:10]:
        summary.append(
            f"  {entry['paper']}: citations={entry['citations']} d={entry['d']:+.4f}"
            + ("" if entry["defined"] else " (undefined)")
        )
    return "disruption", [dsn, dse], payload, summary


def cmd_taxonomy(args) -> Report:
    if bool(args.roots) == bool(args.preset):
        raise ValueError("provide exactly one of --roots or --preset")
    if args.preset:
        presets = taxonomy.wag_root_presets()
        if args.preset not in presets:
            raise ValueError(f"unknown preset {args.preset!r}; have {sorted(presets)}")
        roots = presets[args.preset]
    else:
        roots = [r.strip() for r in args.roots.split(",") if r.strip()]
        if not roots:
            raise ValueError("--roots names no category")
    ds, g = load_category_tsv(args.edges)
    levels = taxonomy.count_members(g, roots, args.depth)
    categories, articles = levels[-1]
    if args.plot_csv:  # one row per depth; rows past the last repeat it
        depths = np.arange(args.depth + 1)
        _write_csv(args.plot_csv, ["depth", "categories", "articles"],
                   depths, *np.array(levels)[np.minimum(depths, len(levels) - 1)].T)
    payload = {"roots": roots, "depth": args.depth, "articles": articles, "categories": categories}
    if args.cycles:
        payload["cycles"] = taxonomy.detect_cycles(g)
    summary = [
        f"{categories} categories and {articles} distinct articles "
        f"within depth {args.depth} of {len(roots)} roots"
    ]
    if args.cycles:
        cycles = payload["cycles"]
        summary.append(f"{len(cycles)} cycle(s) detected")
        summary.extend(f"  {' -> '.join(c)}" for c in cycles[:10])
    return "taxonomy", [ds], payload, summary


def cmd_intersect(args) -> Report:
    percentiles = [float(p) for p in args.percentiles.split(",") if p.strip()]
    if not percentiles:
        raise ValueError("--percentiles names no percentile")
    dsa, a_ids = load_id_list(args.a)
    dsb, b_ids = load_id_list(args.b)
    dsc, ctop = load_id_list(args.ctop)
    rows = disruption.intersect_analysis(set(a_ids), set(b_ids), ctop, percentiles)
    payload = {"a_size": len(set(a_ids)), "b_size": len(set(b_ids)),
               "ctop_size": len(ctop), "rows": rows}
    if args.plot_csv:
        header = ["percentile", "a_frac_of_set", "b_frac_of_set",
                  "a_frac_of_prefix", "b_frac_of_prefix"]
        _write_csv(args.plot_csv, header, *([r[h] for r in rows] for h in header))
    return "intersect", [dsa, dsb, dsc], payload, [
        f"top {r['percentile']:g}% ({r['prefix_size']} ids): "
        f"|a∩prefix|={r['a_count']} ({r['a_frac_of_set']:.1%} of a), "
        f"|b∩prefix|={r['b_count']} ({r['b_frac_of_set']:.1%} of b)"
        for r in rows
    ]


def cmd_distfit(args) -> Report:
    if args.family == "lognormal" and args.kmin is not None:
        raise ValueError("--kmin applies to --family powerlaw only")
    ds, samples = load_samples(args.input)
    if args.family == "lognormal":
        res = graph_metrics.lognormal_fit(samples.astype(float))
        payload = {"family": "lognormal", "mu": res.mu, "sigma": res.sigma,
                   "ks_distance": res.ks_distance, "n": int(samples.size)}
        summary = [f"lognormal fit: mu={res.mu:.4f} sigma={res.sigma:.4f} ks={res.ks_distance:.4f}"]
        if args.plot_csv:
            logs = np.log(samples.astype(float))
            counts, edges = np.histogram(logs, bins=40, density=True)
            centers = 0.5 * (edges[:-1] + edges[1:])
            if res.sigma > 0:
                fit_pdf = np.exp(-0.5 * ((centers - res.mu) / res.sigma) ** 2) / (
                    res.sigma * np.sqrt(2 * np.pi)
                )
            else:
                fit_pdf = np.zeros_like(centers)
            _write_csv(args.plot_csv, ["log_value", "density_empirical", "density_fitted"],
                       centers, counts, fit_pdf)
    else:
        res = graph_metrics.powerlaw_fit(samples, kmin=args.kmin)
        payload = {"family": "powerlaw", "exponent": res.exponent, "kmin": res.kmin,
                   "ks_distance": res.ks_distance, "n_tail": res.n_tail,
                   "at_bound": res.at_bound}
        summary = [
            f"power-law fit: exponent={res.exponent:.3f} kmin={res.kmin} "
            f"ks={res.ks_distance:.4f} (tail n={res.n_tail})"
        ]
        if args.plot_csv:
            tail = np.sort(samples[samples >= res.kmin])
            _write_csv(args.plot_csv, ["value", "ccdf_empirical", "ccdf_fitted"],
                       *graph_metrics.powerlaw_ccdf(tail, res.kmin, res.exponent))
    return "distfit", [ds], payload, summary


def cmd_segment(args) -> Report:
    ds, series = load_series_csv(args.input)
    split = fitting.segment_break(series, args.early_family, args.late_family)
    payload = split.to_json()
    if args.plot_csv:
        fitted = np.concatenate([split.early_fit.predictions, split.late_fit.predictions])
        _write_csv(args.plot_csv, ["date", "actual", "fitted"],
                   map(series.month_at, range(1, len(series) + 1)), series.values, fitted)
    flag = "  [low contrast]" if split.low_contrast else ""
    return "segment", [ds], payload, [
        f"break after {split.break_month} (t={split.break_index}); "
        f"contrast={split.contrast:.3f}{flag}",
        f"early: {split.early_fit.model.family} mape={split.early_fit.mape:.3e}",
        f"late:  {split.late_fit.model.family} mape={split.late_fit.mape:.3e}",
    ]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the full JSON report here")
    common.add_argument("--plot-csv", metavar="PATH", help="write the plot-ready x,y CSV here")
    common.add_argument("--quiet", action="store_true", help="suppress the stdout summary")

    parser = argparse.ArgumentParser(
        prog="knowgrow",
        description="Growth-law fitting and knowledge-graph analysis toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common],
                       help="fit growth-law families to a monthly series",
                       description=f"Input series: {SERIES_FORMAT}.")
    p.add_argument("--input", required=True, help=f"series file ({SERIES_FORMAT})")
    p.add_argument("--family", default="auto",
                   help="family tag or 'auto' to rank all standard families")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", parents=[common],
                       help="extrapolate a fitted model or a catalog model",
                       description="Extends a fit report (from `fit --json`) or a named "
                                   "catalog model month by month.")
    p.add_argument("--fit", help="fit report JSON produced by `fit --json`")
    p.add_argument("--model", help="catalog model name (e.g. wiki_categories)")
    p.add_argument("--from", dest="from_month", metavar="YYYY-MM",
                   help="first month to evaluate (--model only)")
    p.add_argument("--until", required=True, metavar="YYYY-MM", help="last month to evaluate")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("metrics", parents=[common],
                       help="structural metrics of a directed edge list",
                       description=f"Edge list: {EDGES_FORMAT}.")
    p.add_argument("--edges", required=True, help=f"edge list file ({EDGES_FORMAT})")
    p.add_argument("--undirected", action="store_true",
                   help="mirror every arc (file stores one line per undirected edge)")
    p.add_argument("--quantile", type=float, default=0.9,
                   help="effective-diameter quantile over reachable pairs")
    p.add_argument("--sources", type=int, default=64,
                   help="BFS sources for distance sampling (>= n for exhaustive)")
    p.add_argument("--seed", type=int, default=0, help="seed for the BFS source sample")
    p.add_argument("--no-clustering", action="store_true", help="skip the clustering coefficient")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("ba", parents=[common],
                       help="generate a preferential-attachment baseline graph",
                       description="Deterministic per seed; emits the edge list as "
                                   f"{EDGES_FORMAT} (one line per undirected edge).")
    p.add_argument("--nodes", type=int, required=True, help="final node count n")
    p.add_argument("--m", type=int, required=True, help="edges attached per arriving node")
    p.add_argument("--edges-out", metavar="PATH", help="write the edge list TSV here")
    p.add_argument("--sources", type=int, default=64, help="BFS sources for the compare report")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the generator and the BFS source sample")
    p.set_defaults(func=cmd_ba)

    p = sub.add_parser("disrupt", parents=[common],
                       help="disruption index over a citation graph",
                       description=f"Nodes: {NODES_FORMAT}; edges: {CITES_FORMAT}.")
    p.add_argument("--nodes", required=True, help=f"paper list ({NODES_FORMAT})")
    p.add_argument("--edges", required=True, help=f"citation arcs ({CITES_FORMAT})")
    p.add_argument("--key", choices=("citations", "disruption"), default="disruption",
                   help="ranking key for the top list")
    p.add_argument("--top", type=int, default=20, help="how many papers to list")
    p.add_argument("--year-min", type=int, help="earliest publication year to rank")
    p.add_argument("--year-max", type=int, help="latest publication year to rank")
    p.set_defaults(func=cmd_disrupt)

    p = sub.add_parser("taxonomy", parents=[common],
                       help="category-hierarchy counts and cycle detection",
                       description=f"Hierarchy file: {CATEGORY_FORMAT}.")
    p.add_argument("--edges", required=True, help=f"hierarchy file ({CATEGORY_FORMAT})")
    p.add_argument("--roots", help="comma-separated root category names")
    p.add_argument("--preset", help="named root list (wag_core or wag_broad)")
    p.add_argument("--depth", type=int, default=3, help="levels below the roots (roots = level 0)")
    p.add_argument("--cycles", action="store_true", help="also report category cycles")
    p.set_defaults(func=cmd_taxonomy)

    p = sub.add_parser("intersect", parents=[common],
                       help="overlap of two id sets with ranked-list prefixes",
                       description=f"All three inputs: {IDSET_FORMAT}; --ctop order is the ranking.")
    p.add_argument("--a", required=True, help=f"first id set ({IDSET_FORMAT})")
    p.add_argument("--b", required=True, help=f"second id set ({IDSET_FORMAT})")
    p.add_argument("--ctop", required=True, help=f"ranked id list ({IDSET_FORMAT})")
    p.add_argument("--percentiles", default="5,10,20",
                   help="comma-separated prefix percentiles in (0, 100]")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("distfit", parents=[common],
                       help="fit a lognormal or power-law size distribution",
                       description=f"Samples: {SAMPLES_FORMAT}.")
    p.add_argument("--input", required=True, help=f"samples file ({SAMPLES_FORMAT})")
    p.add_argument("--family", choices=("lognormal", "powerlaw"), required=True)
    p.add_argument("--kmin", type=int,
                   help="fixed power-law tail start (powerlaw only; default: KS-optimal)")
    p.set_defaults(func=cmd_distfit)

    p = sub.add_parser("segment", parents=[common],
                       help="two-regime breakpoint detection on a series",
                       description=f"Input series: {SERIES_FORMAT}.")
    p.add_argument("--input", required=True, help=f"series file ({SERIES_FORMAT})")
    p.add_argument("--early-family", default="polynomial3", help="family before the break")
    p.add_argument("--late-family", default="log_integral", help="family after the break")
    p.set_defaults(func=cmd_segment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        kind, inputs, payload, summary = args.func(args)
        if args.json:
            save_report(payload, args.json, kind, inputs)
    except (OSError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    if not args.quiet:
        for line in summary:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
