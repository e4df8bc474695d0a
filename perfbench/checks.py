"""Output checks for the benchmark's ``knowgrow`` reports.

Standard library only.  Two kinds of check run on every report:

- invariants the generator knows for any seed (``truth.json``): planted
  node, arc, loop and duplicate counts, the BA edge-count formula, exact
  taxonomy and intersection counts, the planted cycles, the planted break;
- for the default seed at full size, a compact summary of the report must
  equal the one recorded from the seed commit in ``expected.json``:
  integers, strings, booleans, ids and rankings exactly, floats within
  ``RTOL``.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import workloads as wl

RTOL = 1e-6
N_STANDARD_FAMILIES = 11  # knowgrow.growth.STANDARD_FAMILIES; all apply to a positive series


def _close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _inputs(doc: dict) -> dict:
    return {name: [meta["digest"], meta["rows"]] for name, meta in sorted(doc["inputs"].items())}


# ---------------------------------------------------------------------------
# invariants, for any seed


def _check_ba(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    n, m = size["ba_nodes"], size["ba_m"]
    want = m * (n - m) + m * (m - 1) // 2
    errs = []
    if (p["n"], p["m"], p["seed"]) != (n, m, seed):
        errs.append(f"ba: n/m/seed {(p['n'], p['m'], p['seed'])} != {(n, m, seed)}")
    if p["undirected_edges"] != want:
        errs.append(f"ba: undirected_edges {p['undirected_edges']} != m(n-m)+m(m-1)/2 = {want}")
    names = [r["metric"] for r in p["rows"]]
    if names != ["density", "effective_diameter", "clustering", "powerlaw_exponent"]:
        errs.append(f"ba: unexpected rows {names}")
    elif not _close(p["rows"][0]["empirical"], want / (n * (n - 1))):
        errs.append("ba: density row disagrees with undirected_edges")
    if not rows:
        errs.append("ba: empty plot csv")
    return errs


def _check_metrics(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    t = truth["metrics"]
    errs = [f"metrics: {k} {p[k]} != planted {t[k]}"
            for k in ("n", "arcs", "self_loops", "duplicates_dropped") if p[k] != t[k]]
    hi = t.get("max_distance", p["n"])
    if not 1 <= p["effective_diameter"] <= hi:
        errs.append(f"metrics: effective_diameter {p['effective_diameter']} outside [1, {hi}]")
    if not 0.0 <= p["clustering"] <= 1.0:
        errs.append(f"metrics: clustering {p['clustering']} outside [0, 1]")
    if sum(int(r[1]) for r in rows) != t["n"]:
        errs.append("metrics: degree histogram does not cover every node")
    return errs


def _check_taxonomy(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    t = truth["taxonomy"]
    errs = []
    level, cats, arts = t["levels"][-1]
    if (p["roots"], p["depth"]) != (t["roots"], level):
        errs.append("taxonomy: roots or depth differ from the request")
    if (p["categories"], p["articles"]) != (cats, arts):
        errs.append(f"taxonomy: counts {(p['categories'], p['articles'])} != {(cats, arts)}")
    got = sorted(sorted(c) for c in p["cycles"])
    if got != t["cycles"] or len(p["cycles"]) != len(t["cycles"]):
        errs.append(f"taxonomy: cycles {p['cycles']} != planted {t['cycles']}")
    if [[int(v) for v in r] for r in rows] != t["levels"]:
        errs.append("taxonomy: per-depth plot rows differ from the generator's counts")
    return errs


def _check_disrupt(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    t = truth["disrupt"]
    errs = []
    if p["papers"] != t["papers"] or p["key"] != "disruption":
        errs.append("disrupt: paper count or key differ")
    top = p["top"]
    if len(top) != min(size["cit_top"], t["papers"]):
        errs.append(f"disrupt: top list has {len(top)} entries")
    for e in top:
        cites = t["citations"].get(e["paper"])
        if not (e["n_i"] + e["n_j"] == e["citations"] == cites):
            errs.append(f"disrupt: {e['paper']} n_i+n_j={e['n_i'] + e['n_j']}, "
                        f"citations={e['citations']}, in-degree={cites}")
            break
        denom = e["n_i"] + e["n_j"] + e["n_k"]
        d = (e["n_i"] - e["n_j"]) / denom if denom else 0.0
        if e["defined"] != (denom > 0) or not _close(e["d"], d):
            errs.append(f"disrupt: {e['paper']} d={e['d']} inconsistent with its counts")
            break
    keys = [(-e["d"], e["paper"]) for e in top]
    if keys != sorted(keys):
        errs.append("disrupt: top list not ordered by descending d, then id")
    if len(rows) != 40:
        errs.append(f"disrupt: histogram has {len(rows)} bins, want 40")
    return errs


def _check_intersect(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    t = truth["intersect"]
    errs = [f"intersect: {k} {p[k]} != {t[k]}"
            for k in ("a_size", "b_size", "ctop_size") if p[k] != t[k]]
    for got, want in zip(p["rows"], t["rows"]):
        for k in ("percentile", "prefix_size", "a_count", "b_count"):
            if got[k] != want[k]:
                errs.append(f"intersect: p={want['percentile']} {k} {got[k]} != {want[k]}")
        if got["a_frac_of_set"] != want["a_count"] / t["a_size"]:
            errs.append(f"intersect: p={want['percentile']} a_frac_of_set wrong")
    if len(p["rows"]) != len(t["rows"]) or len(rows) != len(t["rows"]):
        errs.append("intersect: wrong number of rows")
    return errs


def _check_fit(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    t = truth["series"]
    errs = []
    if p["series"]["origin"] != t["origin"] or len(p["series"]["values"]) != t["months"]:
        errs.append("fit: echoed series differs from the input")
    ranking = p["ranking"]
    if len(ranking) != N_STANDARD_FAMILIES:
        errs.append(f"fit: {len(ranking)} families ranked, want {N_STANDARD_FAMILIES}")
    if ranking[0]["family"] != p["best"]["model"]["family"] or ranking[0]["mape"] != p["best"]["mape"]:
        errs.append("fit: best is not the first-ranked family")
    if not all(math.isfinite(r["mape"]) for r in ranking):
        errs.append("fit: non-finite MAPE in ranking")
    if len(rows) != t["months"]:
        errs.append(f"fit: plot csv has {len(rows)} rows, want {t['months']}")
    return errs


def _check_forecast(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    t = truth["series"]
    errs = []
    start = wl.month_add(t["origin"], t["months"])
    if p["forecast"]["origin"] != start:
        errs.append(f"forecast: starts {p['forecast']['origin']}, want {start}")
    if len(p["forecast"]["values"]) != t["forecast_months"] or len(rows) != t["forecast_months"]:
        errs.append(f"forecast: {len(p['forecast']['values'])} months, want {t['forecast_months']}")
    return errs


def _check_segment(p: dict, rows: list, size: dict, seed: int, truth: dict) -> list[str]:
    t = truth["series"]
    errs = []
    if abs(p["break_index"] - t["break_at"]) > 2:
        errs.append(f"segment: break {p['break_index']} not within 2 months of {t['break_at']}")
    if p["break_month"] != wl.month_add(t["origin"], p["break_index"] - 1):
        errs.append("segment: break_month does not match break_index")
    fams = (p["early_fit"]["model"]["family"], p["late_fit"]["model"]["family"])
    if fams != ("polynomial3", "log_integral"):
        errs.append(f"segment: families {fams}")
    if p["low_contrast"]:
        errs.append("segment: planted break reported as low contrast")
    if len(rows) != t["months"]:
        errs.append(f"segment: plot csv has {len(rows)} rows, want {t['months']}")
    return errs


_INVARIANTS = {
    "ba": _check_ba, "metrics": _check_metrics, "taxonomy": _check_taxonomy,
    "disrupt": _check_disrupt, "intersect": _check_intersect, "fit": _check_fit,
    "forecast": _check_forecast, "segment": _check_segment,
}

_HEADERS = {
    "ba": ["degree", "ccdf_empirical", "ccdf_reference"],
    "metrics": ["degree", "count"],
    "taxonomy": ["depth", "categories", "articles"],
    "disrupt": ["d_bin_left", "count"],
    "intersect": ["percentile", "a_frac_of_set", "b_frac_of_set", "a_frac_of_prefix",
                  "b_frac_of_prefix"],
    "fit": ["date", "actual", "fitted"],
    "forecast": ["date", "value"],
    "segment": ["date", "actual", "fitted"],
}


# ---------------------------------------------------------------------------
# compact summaries, compared with expected.json on the default seed


def _fit_summary(f: dict) -> dict:
    return {"family": f["model"]["family"], "params": f["model"]["params"],
            "mape": f["mape"], "rmse": f["rmse"], "converged": f["converged"]}


def summarize(name: str, doc: dict, rows: list) -> dict:
    """The report's counts, ids, rankings and headline floats, without bulk arrays."""
    p = doc["payload"]
    s: dict = {"kind": doc["kind"], "inputs": _inputs(doc), "csv_rows": len(rows)}
    if name == "ba":
        s.update({k: p[k] for k in ("n", "m", "seed", "undirected_edges", "powerlaw_kmin")})
        s["rows"] = {r["metric"]: [r["empirical"], r["ratio"], r["within_band"]] for r in p["rows"]}
    elif name == "metrics":
        s.update(p)
        s["degree_histogram"] = [[int(r[0]), int(r[1])] for r in rows]
    elif name == "taxonomy":
        s.update({k: p[k] for k in ("categories", "articles", "cycles")})
    elif name == "disrupt":
        ids = "\n".join(e["paper"] for e in p["top"]).encode()
        s.update({
            "papers": p["papers"],
            "top_sha256": hashlib.sha256(ids).hexdigest(),
            "head": p["top"][:10],
            "sums": [sum(e[k] for e in p["top"]) for k in ("n_i", "n_j", "n_k", "citations")],
            "d_sum": sum(e["d"] for e in p["top"]),
            "histogram": [int(r[1]) for r in rows],
        })
    elif name == "intersect":
        s["rows"] = p["rows"]
    elif name == "fit":
        s["best"] = _fit_summary(p["best"])
        s["ranking"] = [[r["family"], r["mape"]] for r in p["ranking"]]
    elif name == "forecast":
        v = p["forecast"]["values"]
        s.update({"model": p["model"], "origin": p["forecast"]["origin"], "months": len(v),
                  "first": v[0], "last": v[-1]})
    elif name == "segment":
        s.update({k: p[k] for k in ("break_index", "break_month", "contrast", "low_contrast")})
        s["early"] = _fit_summary(p["early_fit"])
        s["late"] = _fit_summary(p["late_fit"])
    return s


def diff(got, want, path: str = "") -> list[str]:
    """Differences between two summaries: exact except floats (relative RTOL)."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) \
                and not isinstance(got, bool) and _close(float(got), float(want), RTOL):
            return []
        return [f"{path}: {got!r} != expected {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}.{k}: missing" for k in want if k not in got]
        out += [f"{path}.{k}: unexpected" for k in got if k not in want]
        for k in want:
            if k in got:
                out += diff(got[k], want[k], f"{path}.{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != expected {len(want)}"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in diff(g, w, f"{path}[{i}]")]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != expected {want!r}"]


def check_report(name: str, report: bytes, plot: bytes, size: dict, seed: int, truth: dict,
                 expected: dict | None) -> tuple[list[str], dict | None]:
    """Errors found in one command's report and plot CSV, and its summary."""
    try:
        doc = json.loads(report)
        header, rows = _csv_rows(plot.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"{name}: unreadable output: {exc}"], None
    if header != _HEADERS[name]:
        return [f"{name}: plot csv header {header}"], None
    try:
        errs = _INVARIANTS[name](doc["payload"], rows, size, seed, truth)
        summary = summarize(name, doc, rows)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"{name}: malformed report: {exc!r}"], None
    if expected is not None:
        errs += diff(summary, expected, name)
    return errs, summary
