"""Input parsing, analysis reports, and the digest-keyed result cache.

Formats (all plain text, UTF-8):

- series:    CSV with header ``date,value``; date is ISO ``YYYY-MM`` and
             months must be consecutive (a gap is an error naming the
             missing month).
- edge_list: TSV ``src<TAB>dst``; node ids are opaque strings interned to
             dense indices in first-appearance order; duplicate arcs are
             dropped with a count.  Loaded with ``undirected=True`` (every
             arc mirrored) the input is recorded as ``undirected_edge_list``.
- category:  TSV ``child<TAB>parent<TAB>kind`` with kind of the child in
             {article, category}.
- citation:  nodes TSV ``id<TAB>year[<TAB>field]`` plus edges TSV
             ``citing<TAB>cited``; duplicate citations dropped with a count.
             A paper without a field has two columns: an empty third
             column is malformed, like any empty field.
- samples:   one positive integer per line.
- id_list:   one paper id per line (order is meaningful for rankings).

The TSV formats and the sample list are parsed by one record reader: blank
lines are skipped, every other line must have the format's field count and
no empty field (an error names the line), and a Dataset's ``rows`` is the
number of records parsed.  Each file is read once.  Digests canonicalize
before hashing: edge lists hash their sorted ``src<TAB>dst`` label rows
(order-insensitive, the rows ``write_edge_tsv`` writes), series and
rankings hash in sequence order.  Reports are JSON documents embedding
``schema_version``, the tool version, and the digests of their inputs;
writes are atomic (temp file + rename).
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .disruption import CitationGraph
from .fitting import TimeSeries
from .graph_metrics import SnapshotGraph
from .months import add_months, month_ordinal
from .taxonomy import CategoryGraph

__all__ = [
    "DataFormatError",
    "Dataset",
    "load",
    "load_series_csv",
    "load_edge_list",
    "load_category_tsv",
    "load_samples",
    "load_id_list",
    "load_citation",
    "write_edge_tsv",
    "save_report",
    "load_report",
    "verify_report_inputs",
    "cache_get",
    "cache_put",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
CACHE_ENV = "KNOWGROW_CACHE_DIR"

KINDS = (
    "series", "edge_list", "undirected_edge_list", "citation", "category", "samples", "id_list"
)


class DataFormatError(ValueError):
    """Malformed input; the message carries path and 1-based line number."""

    def __init__(self, path: str | Path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class Dataset:
    """Provenance record of one parsed input file."""

    kind: str
    path: str
    digest: str
    rows: int

    def to_json(self) -> dict:
        return {"kind": self.kind, "path": self.path, "digest": self.digest, "rows": self.rows}


def _digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for ln in lines:
        h.update(ln.encode())
        h.update(b"\n")
    return h.hexdigest()


def _read_lines(path: str | Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def load_series_csv(path: str | Path, label: str = "") -> tuple[Dataset, TimeSeries]:
    lines = _read_lines(path)
    if not lines or lines[0].strip().lower() != "date,value":
        raise DataFormatError(path, 1, "expected header 'date,value'")
    months: list[str] = []
    values: list[float] = []
    for no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise DataFormatError(path, no, f"expected 'date,value', got {raw!r}")
        date, val = parts[0].strip(), parts[1].strip()
        try:
            ordinal = month_ordinal(date)
        except ValueError as exc:
            raise DataFormatError(path, no, str(exc)) from None
        try:
            value = float(val)
        except ValueError:
            raise DataFormatError(path, no, f"not a number: {val!r}") from None
        if not math.isfinite(value):
            raise DataFormatError(path, no, f"value must be finite, got {val!r}")
        if months:
            expected = month_ordinal(months[-1]) + 1
            if ordinal == expected - 1:
                raise DataFormatError(path, no, f"duplicate month {date}")
            if ordinal < expected - 1:
                raise DataFormatError(path, no, f"out-of-order date {date}")
            if ordinal > expected:
                missing = add_months(months[-1], 1)
                raise DataFormatError(path, no, f"gap in series: missing month {missing}")
        months.append(date)
        values.append(value)
    if len(values) < 2:
        raise DataFormatError(path, None, "series needs at least 2 rows")
    series = TimeSeries(origin=months[0], values=tuple(values), label=label or Path(path).stem)
    canonical = [f"{m},{v!r}" for m, v in zip(months, series.values)]
    return Dataset("series", str(path), _digest(canonical), len(values)), series


def _records(path: str | Path, lines: list[str], n_fields: tuple[int, ...]):
    """``(line number, stripped fields)`` of every non-blank tab-separated line."""
    for no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        parts = [p.strip() for p in raw.split("\t")]
        if len(parts) not in n_fields:
            want = " or ".join(map(str, n_fields))
            raise DataFormatError(
                path, no, f"expected {want} tab-separated fields, got {len(parts)}"
            )
        if not all(parts):
            raise DataFormatError(path, no, f"empty field {parts.index('') + 1}")
        yield no, parts


def _intern_arcs(path: str | Path, undirected: bool) -> tuple[list[str], np.ndarray, int]:
    """Labels in first-appearance order, the ``(m, 2)`` index arcs and the record count."""
    ends: list[str] = []  # src0, dst0, src1, dst1, ...
    for _, pair in _records(path, _read_lines(path), (2,)):
        ends += pair
    labels = list(dict.fromkeys(ends))
    index = dict(zip(labels, range(len(labels))))
    arcs = np.fromiter(map(index.__getitem__, ends), np.int64, len(ends)).reshape(-1, 2)
    if undirected:
        arcs = np.concatenate([arcs, arcs[:, ::-1]])
    return labels, arcs, len(ends) // 2


def load_edge_list(path: str | Path, undirected: bool = False) -> tuple[Dataset, SnapshotGraph]:
    """Edge list TSV -> SnapshotGraph with labels interned in file order.

    ``undirected=True`` mirrors every arc, for edge lists that store one
    line per undirected edge; the input is then recorded as kind
    ``undirected_edge_list`` so reports re-verify with the same mirroring.
    """
    labels, arcs, rows = _intern_arcs(path, undirected)
    if not labels:
        raise DataFormatError(path, None, "edge list is empty")
    graph = SnapshotGraph.from_edges(arcs, n=len(labels), labels=labels)
    del arcs  # freed before the digest strings are built
    kind = "undirected_edge_list" if undirected else "edge_list"
    ds = Dataset(kind, str(path), _digest(_arc_lines(graph)), rows)
    if graph.duplicate_count:
        logger.warning("%s: dropped %d duplicate arcs", path, graph.duplicate_count)
    return ds, graph


def _arc_lines(graph: SnapshotGraph) -> list[str]:
    """Sorted ``src<TAB>dst`` label rows; node ids stand in for missing labels."""
    names = graph.labels if graph.labels is not None else map(str, range(graph.n))
    labels = np.fromiter(names, object, graph.n)
    return sorted(map("\t".join, zip(labels[graph.src], labels[graph.dst])))


def write_edge_tsv(graph: SnapshotGraph, path: str | Path) -> None:
    """Serialize to the canonical sorted TSV form (stable across reloads)."""
    _atomic_write(path, ("\n".join(_arc_lines(graph)) + "\n").encode())


def load_category_tsv(path: str | Path) -> tuple[Dataset, CategoryGraph]:
    triples = []
    for no, (child, parent, kind) in _records(path, _read_lines(path), (3,)):
        if kind not in ("article", "category"):
            raise DataFormatError(path, no, f"kind must be article|category, got {kind!r}")
        triples.append((child, parent, kind))
    if not triples:
        raise DataFormatError(path, None, "category file is empty")
    try:
        graph = CategoryGraph.from_edges(triples)
    except ValueError as exc:
        raise DataFormatError(path, None, str(exc)) from None
    canonical = sorted(map("\t".join, triples))
    return Dataset("category", str(path), _digest(canonical), len(triples)), graph


def load_samples(path: str | Path) -> tuple[Dataset, np.ndarray]:
    values = []
    for no, (raw,) in _records(path, _read_lines(path), (1,)):
        try:
            v = int(raw)
        except ValueError:
            raise DataFormatError(path, no, f"not an integer: {raw!r}") from None
        if v <= 0:
            raise DataFormatError(path, no, f"sample must be positive, got {v}")
        values.append(v)
    if not values:
        raise DataFormatError(path, None, "no samples in file")
    arr = np.asarray(values, dtype=np.int64)
    return Dataset("samples", str(path), _digest([str(v) for v in values]), len(values)), arr


def load_id_list(path: str | Path) -> tuple[Dataset, list[str]]:
    lines = _read_lines(path)
    ids = [ln.strip() for ln in lines if ln.strip()]
    if not ids:
        raise DataFormatError(path, None, "no ids in file")
    return Dataset("id_list", str(path), _digest(ids), len(ids)), ids


def load_citation(
    nodes_path: str | Path, edges_path: str | Path
) -> tuple[tuple[Dataset, Dataset], CitationGraph]:
    """Citation graph from a nodes file and an edges file."""
    node_lines = _read_lines(nodes_path)
    papers = []
    for no, (pid, year, *fld) in _records(nodes_path, node_lines, (2, 3)):
        try:
            papers.append((pid, int(year), *fld))
        except ValueError:  # only int() raises
            raise DataFormatError(nodes_path, no, f"not a year: {year!r}") from None
    edge_lines = _read_lines(edges_path)
    edges = [pair for _, pair in _records(edges_path, edge_lines, (2,))]
    try:
        graph = CitationGraph.build(papers, edges)
    except ValueError as exc:
        raise DataFormatError(edges_path, None, str(exc)) from None
    ds_nodes = Dataset("citation", str(nodes_path), _citation_digest(node_lines), len(papers))
    ds_edges = Dataset("citation", str(edges_path), _citation_digest(edge_lines), len(edges))
    if graph.duplicate_count:
        logger.warning("%s: dropped %d duplicate citations", edges_path, graph.duplicate_count)
    return (ds_nodes, ds_edges), graph


def _citation_digest(lines: list[str]) -> str:
    # role-independent: sorted non-empty rows, so either citation file can be
    # re-verified without knowing whether it held nodes or edges
    return _digest(sorted(ln.strip() for ln in lines if ln.strip()))


_LOADERS = {
    "series": load_series_csv,
    "edge_list": load_edge_list,
    "undirected_edge_list": partial(load_edge_list, undirected=True),
    "category": load_category_tsv,
    "samples": load_samples,
    "id_list": load_id_list,
}


def load(path: str | Path, kind: str):
    """Load and validate one input file of the given kind.

    The two-file ``citation`` kind has its own entry point,
    :func:`load_citation`.
    """
    if kind == "citation":
        raise ValueError("citation inputs are two files; use load_citation(nodes, edges)")
    if kind not in _LOADERS:
        raise ValueError(f"unknown dataset kind {kind!r} (expected one of {KINDS})")
    if not Path(path).exists():
        raise FileNotFoundError(f"no such file: {path}")
    return _LOADERS[kind](path)


# ---------------------------------------------------------------------------
# reports


def _atomic_write(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_bytes(payload: dict, kind: str, inputs: list[Dataset] | None = None) -> bytes:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": kind,
        "inputs": {Path(ds.path).name: ds.to_json() for ds in (inputs or [])},
        "payload": payload,
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def save_report(
    payload: dict, path: str | Path, kind: str, inputs: list[Dataset] | None = None
) -> None:
    """Write a versioned JSON report; floats round-trip losslessly."""
    _atomic_write(path, report_bytes(payload, kind, inputs))


def load_report(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("schema_version", "tool_version"):
        if key not in doc:
            raise ValueError(f"{path}: report missing required field {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {doc['schema_version']}")
    return doc


def verify_report_inputs(doc: dict, overrides: dict[str, str | Path] | None = None) -> None:
    """Recompute input digests and fail loudly on any mismatch.

    ``overrides`` remaps input names to current paths when files moved.
    """
    overrides = overrides or {}
    for name, meta in doc.get("inputs", {}).items():
        path = Path(overrides.get(name, meta["path"]))
        if meta["kind"] == "citation":
            fresh = _citation_digest(_read_lines(path))
        else:
            fresh = _LOADERS[meta["kind"]](path)[0].digest
        if fresh != meta["digest"]:
            raise ValueError(
                f"digest mismatch for input {name!r}: report has {meta['digest'][:12]}..., "
                f"file {path} now hashes to {fresh[:12]}..."
            )


# ---------------------------------------------------------------------------
# cache


def _cache_dir(explicit: str | Path | None = None) -> Path | None:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def cache_key(operation: str, digest: str, params: dict) -> str:
    canon = json.dumps({"op": operation, "digest": digest, "params": params}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def cache_get(
    operation: str, digest: str, params: dict, cache_dir: str | Path | None = None
) -> bytes | None:
    """Byte-identical prior report, or None on miss/corruption."""
    root = _cache_dir(cache_dir)
    if root is None:
        return None
    entry = root / f"{cache_key(operation, digest, params)}.json"
    if not entry.exists():
        return None
    data = entry.read_bytes()
    try:
        json.loads(data)
    except json.JSONDecodeError:
        logger.warning("corrupt cache entry %s: treating as miss", entry)
        return None
    return data


def cache_put(
    operation: str, digest: str, params: dict, data: bytes, cache_dir: str | Path | None = None
) -> bool:
    """Store a report; returns False when no cache directory is configured."""
    root = _cache_dir(cache_dir)
    if root is None:
        return False
    _atomic_write(root / f"{cache_key(operation, digest, params)}.json", data)
    return True
