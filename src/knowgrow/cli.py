"""Command-line interface: one executable, one subcommand per pipeline.

Outputs are deterministic given identical inputs and ``--seed``.  Exit
codes: 0 success, 1 data/processing error (diagnostic on stderr), 2 usage
error (argparse).  ``--json`` writes the full machine-readable report,
``--plot-csv`` writes the x,y table behind the figure-like output of the
subcommand, and stdout carries a short human summary unless ``--quiet``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
from scipy.special import zeta

from . import __version__, ba as ba_mod
from .dataio import (
    DataFormatError,
    Dataset,
    _atomic_write,
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
from .disruption import YEAR_RANGE, d_index_all, intersect_analysis, rank
from .fitting import FitResult, TimeSeries, forecast, segment_break, select
from .graph_metrics import (
    avg_shortest_path,
    clustering_coefficient,
    degree_entropy,
    density,
    effective_diameter,
    empirical_ccdf,
    lognormal_fit,
    mean_degree,
    powerlaw_fit,
)
from .growth import STANDARD_FAMILIES, DomainError, family_spec, model_catalog
from .months import month_index
from .taxonomy import count_members, count_members_by_level, detect_cycles, wag_root_presets

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


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _emit(args, payload: dict, kind: str, inputs: list[Dataset], summary: list[str]) -> None:
    if args.json:
        save_report(payload, args.json, kind, inputs)
    if not args.quiet:
        for line in summary:
            print(line)


def _parse_year_range(args) -> tuple[int, int] | None:
    if args.year_min is None and args.year_max is None:
        return None
    lo = YEAR_RANGE[0] if args.year_min is None else args.year_min
    hi = YEAR_RANGE[1] if args.year_max is None else args.year_max
    return lo, hi


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_fit(args) -> int:
    ds, series = load_series_csv(args.input)
    if args.family == "auto":
        families = [
            f
            for f in STANDARD_FAMILIES
            if not family_spec(f).log_space or all(v > 0 for v in series.values)
        ]
    else:
        families = [args.family]
    ranked = select(series, families)
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
        rows = [
            (series.month_at(i + 1), series.values[i], float(p))
            for i, p in enumerate(best.predictions)
        ]
        _write_csv(args.plot_csv, ["date", "actual", "fitted"], rows)
    _emit(
        args,
        payload,
        "fit_result",
        [ds],
        [
            f"best family: {best.model.family}  params={tuple(round(p, 6) for p in best.model.params)}",
            f"mape={best.mape:.3e}  signed_mpe={best.signed_mpe:+.3e}  rmse={best.rmse:.4g}",
        ],
    )
    return 0


def cmd_forecast(args) -> int:
    if bool(args.fit) == bool(args.model):
        raise ValueError("provide exactly one of --fit or --model")
    if args.fit:
        doc = load_report(args.fit)
        result = FitResult.from_json(doc["payload"]["best"])
        series = forecast(result, args.until)
        model = result.model
    else:
        catalog = model_catalog()
        if args.model not in catalog:
            raise ValueError(f"unknown catalog model {args.model!r}; have {sorted(catalog)}")
        model = catalog[args.model]
        if not args.from_month:
            raise ValueError("--from is required with --model")
        t0 = month_index(model.t_origin, args.from_month)
        t1 = month_index(model.t_origin, args.until)
        if t1 < t0:
            raise ValueError("--until precedes --from")
        tt = np.arange(t0, t1 + 1, dtype=float)
        values = np.asarray(model.evaluate(tt), dtype=float)
        series = TimeSeries(origin=args.from_month, values=tuple(values), label=args.model)
    payload = {"model": model.to_json(), "forecast": series.to_json()}
    if args.plot_csv:
        rows = [(series.month_at(i + 1), v) for i, v in enumerate(series.values)]
        _write_csv(args.plot_csv, ["date", "value"], rows)
    _emit(
        args,
        payload,
        "forecast",
        [],
        [f"{series.month_at(len(series))}: {series.values[-1]:,.0f}"],
    )
    return 0


def cmd_metrics(args) -> int:
    ds, g = load_edge_list(args.edges, undirected=args.undirected)
    params = {
        "quantile": args.quantile,
        "sources": args.sources,
        "seed": args.seed,
        "undirected": args.undirected,
        "clustering": not args.no_clustering,
    }
    cached = cache_get("metrics", ds.digest, params)
    if cached is not None:
        payload = json.loads(cached)["payload"]
    else:
        entropy = {d: degree_entropy(g, d) for d in ("in", "out", "total")}
        payload = {
            "n": g.n,
            "arcs": g.arc_count,
            "self_loops": g.self_loop_count,
            "duplicates_dropped": g.duplicate_count,
            "density": density(g),
            "mean_degree": mean_degree(g),
            "degree_entropy": entropy,
            "normalized_structural_entropy": {d: h / math.log(g.n) for d, h in entropy.items()},
            "effective_diameter": effective_diameter(g, args.quantile, args.sources, args.seed),
            "avg_shortest_path": avg_shortest_path(g, args.sources, args.seed),
        }
        if not args.no_clustering:
            payload["clustering"] = clustering_coefficient(g)
        cache_put("metrics", ds.digest, params, report_bytes(payload, "metrics", [ds]))
    if args.plot_csv:
        vals, counts = np.unique(g.degrees("total"), return_counts=True)
        _write_csv(args.plot_csv, ["degree", "count"], list(zip(vals.tolist(), counts.tolist())))
    summary = [
        f"n={payload['n']}  arcs={payload['arcs']}  density={payload['density']:.4g}",
        f"effective_diameter={payload['effective_diameter']}  "
        f"avg_shortest_path={payload['avg_shortest_path']:.3f}",
        f"degree_entropy(total)={payload['degree_entropy']['total']:.4f}",
    ]
    _emit(args, payload, "metrics", [ds], summary)
    return 0


def cmd_ba(args) -> int:
    params = ba_mod.BAParams(n=args.nodes, m=args.m, seed=args.seed)
    g = ba_mod.generate(params)
    if args.edges_out:
        mask = g.src < g.dst
        rows = [f"{s}\t{d}" for s, d in zip(g.src[mask], g.dst[mask])]
        _atomic_write(args.edges_out, ("\n".join(rows) + "\n").encode())
    report = ba_mod.compare(g, params, sources=args.sources)
    if args.plot_csv:
        deg = g.degrees("out")
        ks, ccdf_emp = empirical_ccdf(np.sort(deg))
        ccdf_theory = 2.0 * params.m**2 * zeta(3.0, ks.astype(float))
        _write_csv(
            args.plot_csv,
            ["degree", "ccdf_empirical", "ccdf_reference"],
            list(zip(ks.tolist(), ccdf_emp.tolist(), ccdf_theory.tolist())),
        )
    summary = [f"BA n={params.n} m={params.m} seed={params.seed}: "
               f"{report['undirected_edges']} undirected edges"]
    for row in report["rows"]:
        flag = "" if row["within_band"] else "  [outside band]"
        summary.append(
            f"  {row['metric']:<20} {row['empirical']:.4g} vs {row['reference']:.4g} "
            f"(ratio {row['ratio']:.2f}){flag}"
        )
    _emit(args, report, "ba_compare", [], summary)
    return 0


def cmd_disrupt(args) -> int:
    (dsn, dse), g = load_citation(args.nodes, args.edges)
    scores = d_index_all(g)
    year_range = _parse_year_range(args)
    ordered = rank(g, key=args.key, k=args.top, year_range=year_range)
    citations = {g.ids[i]: int(c) for i, c in enumerate(g.citation_counts())}
    payload = {
        "papers": len(g),
        "key": args.key,
        "year_range": list(year_range) if year_range else None,
        "top": [
            {"paper": pid, "citations": citations[pid], **scores[pid].to_json()}
            for pid in ordered
        ],
    }
    if args.plot_csv:
        d_values = [s.d for s in scores.values() if s.defined]
        counts, edges = np.histogram(d_values, bins=40, range=(-1.0, 1.0))
        _write_csv(
            args.plot_csv,
            ["d_bin_left", "count"],
            list(zip(edges[:-1].tolist(), counts.tolist())),
        )
    summary = [f"{len(g)} papers; top {len(ordered)} by {args.key}:"]
    for entry in payload["top"][:10]:
        summary.append(
            f"  {entry['paper']}: citations={entry['citations']} d={entry['d']:+.4f}"
            + ("" if entry["defined"] else " (undefined)")
        )
    _emit(args, payload, "disruption", [dsn, dse], summary)
    return 0


def cmd_taxonomy(args) -> int:
    if bool(args.roots) == bool(args.preset):
        raise ValueError("provide exactly one of --roots or --preset")
    ds, g = load_category_tsv(args.edges)
    if args.preset:
        presets = wag_root_presets()
        if args.preset not in presets:
            raise ValueError(f"unknown preset {args.preset!r}; have {sorted(presets)}")
        roots = presets[args.preset]
    else:
        roots = [r.strip() for r in args.roots.split(",") if r.strip()]
    if args.plot_csv:
        # one row per depth, so only the plot pays O(depth)
        levels = count_members_by_level(g, roots, args.depth)
        rows = [(level, *row) for level, row in enumerate(levels)]
        _write_csv(args.plot_csv, ["depth", "categories", "articles"], rows)
        categories, articles = levels[-1]
    else:
        counts = count_members(g, roots, args.depth)
        categories, articles = counts["categories"], counts["articles"]
    payload = {"roots": roots, "depth": args.depth, "articles": articles, "categories": categories}
    if args.cycles:
        payload["cycles"] = detect_cycles(g)
    summary = [
        f"{categories} categories and {articles} distinct articles "
        f"within depth {args.depth} of {len(roots)} roots"
    ]
    if args.cycles:
        cycles = payload["cycles"]
        summary.append(f"{len(cycles)} cycle(s) detected")
        summary.extend(f"  {' -> '.join(c)}" for c in cycles[:10])
    _emit(args, payload, "taxonomy", [ds], summary)
    return 0


def cmd_intersect(args) -> int:
    percentiles = [float(p) for p in args.percentiles.split(",") if p.strip()]
    dsa, a_ids = load_id_list(args.a)
    dsb, b_ids = load_id_list(args.b)
    dsc, ctop = load_id_list(args.ctop)
    rows = intersect_analysis(set(a_ids), set(b_ids), ctop, percentiles)
    payload = {"a_size": len(set(a_ids)), "b_size": len(set(b_ids)),
               "ctop_size": len(ctop), "rows": rows}
    if args.plot_csv:
        _write_csv(
            args.plot_csv,
            ["percentile", "a_frac_of_set", "b_frac_of_set", "a_frac_of_prefix", "b_frac_of_prefix"],
            [
                (r["percentile"], r["a_frac_of_set"], r["b_frac_of_set"],
                 r["a_frac_of_prefix"], r["b_frac_of_prefix"])
                for r in rows
            ],
        )
    summary = []
    for r in rows:
        summary.append(
            f"top {r['percentile']:g}% ({r['prefix_size']} ids): "
            f"|a∩prefix|={r['a_count']} ({r['a_frac_of_set']:.1%} of a), "
            f"|b∩prefix|={r['b_count']} ({r['b_frac_of_set']:.1%} of b)"
        )
    _emit(args, payload, "intersect", [dsa, dsb, dsc], summary)
    return 0


def cmd_distfit(args) -> int:
    ds, samples = load_samples(args.input)
    if args.family == "lognormal":
        res = lognormal_fit(samples.astype(float))
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
            _write_csv(
                args.plot_csv,
                ["log_value", "density_empirical", "density_fitted"],
                list(zip(centers.tolist(), counts.tolist(), fit_pdf.tolist())),
            )
    else:
        res = powerlaw_fit(samples, kmin=args.kmin)
        payload = {"family": "powerlaw", "exponent": res.exponent, "kmin": res.kmin,
                   "ks_distance": res.ks_distance, "n_tail": res.n_tail}
        summary = [
            f"power-law fit: exponent={res.exponent:.3f} kmin={res.kmin} "
            f"ks={res.ks_distance:.4f} (tail n={res.n_tail})"
        ]
        if args.plot_csv:
            ks, ccdf_emp = empirical_ccdf(np.sort(samples[samples >= res.kmin]))
            ccdf_fit = zeta(res.exponent, ks.astype(float)) / zeta(res.exponent, res.kmin)
            _write_csv(
                args.plot_csv,
                ["value", "ccdf_empirical", "ccdf_fitted"],
                list(zip(ks.tolist(), ccdf_emp.tolist(), ccdf_fit.tolist())),
            )
    _emit(args, payload, "distfit", [ds], summary)
    return 0


def cmd_segment(args) -> int:
    ds, series = load_series_csv(args.input)
    split = segment_break(series, args.early_family, args.late_family)
    payload = split.to_json()
    if args.plot_csv:
        fitted = np.concatenate([split.early_fit.predictions, split.late_fit.predictions])
        rows = [
            (series.month_at(i + 1), series.values[i], float(fitted[i]))
            for i in range(len(series))
        ]
        _write_csv(args.plot_csv, ["date", "actual", "fitted"], rows)
    flag = "  [low contrast]" if split.low_contrast else ""
    summary = [
        f"break after {split.break_month} (t={split.break_index}); "
        f"contrast={split.contrast:.3f}{flag}",
        f"early: {split.early_fit.model.family} mape={split.early_fit.mape:.3e}",
        f"late:  {split.late_fit.model.family} mape={split.late_fit.mape:.3e}",
    ]
    _emit(args, payload, "segment", [ds], summary)
    return 0


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
                   help="first month to evaluate (with --model)")
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
    p.add_argument("--kmin", type=int, help="fixed power-law tail start (default: KS-optimal)")
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
        return args.func(args)
    except (DataFormatError, FileNotFoundError, DomainError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
