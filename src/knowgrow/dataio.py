"""Input parsing, analysis reports, and the digest-keyed result cache.

Formats (all plain text, UTF-8):

- series:    CSV with header ``date,value``; date is ISO ``YYYY-MM`` and
             months must be consecutive (a gap is an error naming the
             missing month).  A value is an ASCII float spelling without
             ``_``.
- edge_list: TSV ``src<TAB>dst``; node ids are opaque strings interned to
             dense indices in first-appearance order; duplicate arcs are
             dropped with a count.  Loaded with ``undirected=True`` (every
             arc mirrored) the input is recorded as ``undirected_edge_list``.
- category:  TSV ``child<TAB>parent<TAB>kind`` with kind of the child in
             {article, category}.
- citation:  nodes TSV ``id<TAB>year[<TAB>field]`` plus edges TSV
             ``citing<TAB>cited``; duplicate citations dropped with a count.
             A paper without a field has two columns: an empty third
             column is malformed, like any empty field.  A year is ASCII
             digits.
- samples:   one positive integer per line, in ASCII digits.
- id_list:   one paper id per line (order is meaningful for rankings).

The TSV formats and the sample list are read by one numpy reader, `_table`:
lines end at ``\n`` (``\r\n`` and ``\r`` read as ``\n``), fields are split at
tabs and stripped as `str.strip` strips them, blank lines are skipped,
every other line must have the format's field count and no empty field (an
error names the line), and a Dataset's ``rows`` is the number of records
read.  It returns field offsets into the file's bytes and the line of each
record, so loaders intern fields without making strings and map a graph
fault to its line.
Digests canonicalize before hashing: edge lists hash their sorted
``src<TAB>dst`` label rows (order-insensitive, the rows ``write_edge_tsv``
writes), citation files their sorted lines, series and rankings hash in
sequence order.  Reports are JSON documents embedding
``schema_version``, the tool version, and the digests of their inputs,
keyed by file name (by path where two inputs share a name); writes are
atomic (temp file + rename).
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .disruption import CitationError, CitationGraph, PaperError
from .fitting import TimeSeries
from .graph_metrics import SnapshotGraph
from .months import add_months, month_ordinal
from .taxonomy import CategoryError, CategoryGraph

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
TAB, NL = 9, 10

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
    """sha256 of the lines, each followed by a newline (no bytes for no lines)."""
    text = "\n".join(lines) + "\n" if lines else ""
    return hashlib.sha256(text.encode()).hexdigest()


def _read_lines(path: str | Path) -> list[str]:
    """The lines between ``\\n`` (after universal-newline translation), final newline optional."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def load_series_csv(path: str | Path) -> tuple[Dataset, TimeSeries]:
    """Series CSV -> TimeSeries labelled with the file stem."""
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
            if not val.isascii() or "_" in val:  # float() also reads 1_0 and full-width digits
                raise ValueError(val)
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
    series = TimeSeries(origin=months[0], values=tuple(values), label=Path(path).stem)
    canonical = [f"{m},{v!r}" for m, v in zip(months, series.values)]
    return Dataset("series", str(path), _digest(canonical), len(values)), series


def _table(path: str | Path, n_fields: tuple[int, ...]):
    """The records of a TSV file: its bytes, the ``(records, k)`` starts and ends
    in them of each record's first ``k = min(n_fields)`` fields, and each record's line.

    Lines end at ``\\n`` (``\\r\\n`` and ``\\r`` read as ``\\n``) and split at tabs.
    Each field is stripped as `str.strip` strips it, and lines of whitespace
    are skipped.  The first other line whose field count is not in
    ``n_fields``, or that has an empty field, raises a `DataFormatError`; a
    file that is not UTF-8 raises `UnicodeDecodeError`.
    """
    data = Path(path).read_bytes()
    if not data.isascii():
        data.decode()  # rejects a file that is not UTF-8
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    seps = np.flatnonzero((buf == TAB) | (buf == NL))  # each field's end
    line_end = np.flatnonzero(buf[seps] == NL)  # each line's last field
    counts = np.diff(line_end, prepend=-1)
    first = line_end - counts + 1  # each line's first field
    # a field whose last or first byte is not printable ASCII (``!`` to ``~``) is
    # stripped in Python: such fields are few, and empty ones are among them, as
    # their bytes read separators (an empty first field reads the final newline)
    last, head = buf[seps - 1], np.concatenate((buf[:1], buf[1:][seps[:-1]]))
    odd = np.flatnonzero((last - np.uint8(0x21) > 0x5D) | (head - np.uint8(0x21) > 0x5D))
    lo, hi = np.where(odd > 0, seps[odd - 1] + 1, 0), seps[odd]
    for j, text in enumerate(_texts(data, lo, hi)):
        lo[j] += len(text[: len(text) - len(text.lstrip())].encode())
        hi[j] = lo[j] + len(text.strip().encode())
    empty = odd[lo == hi]
    n_empty = np.bincount(np.searchsorted(line_end, empty), minlength=len(counts))
    keep = n_empty < counts  # lines of whitespace are skipped
    wrong = np.logical_and.reduce([counts != n for n in n_fields])
    faults = np.flatnonzero(keep & ((n_empty > 0) | wrong))
    if len(faults):
        line, want = int(faults[0]), " or ".join(map(str, n_fields))
        message = f"expected {want} tab-separated fields, got {counts[line]}"
        if counts[line] in n_fields:  # the count is right, so a field is empty
            message = f"empty field {empty[np.searchsorted(empty, first[line])] - first[line] + 1}"
        raise DataFormatError(path, line + 1, message)
    # a full per-field starts array lives only while the records are picked:
    # held longer, it raised the peak RSS of metrics
    pick = np.stack([first[keep] + j for j in range(min(n_fields))], axis=1)
    starts, ends = np.concatenate(([0], seps + 1))[pick], seps[pick]
    picked = np.isin(odd, pick)  # stripped fields that the records hold
    at = np.searchsorted(pick.ravel(), odd[picked])
    starts.flat[at], ends.flat[at] = lo[picked], hi[picked]
    return data, starts, ends, np.flatnonzero(keep) + 1


def _intern(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the fields ``data[starts:ends]`` in first-appearance order, and each id's first field.

    Fields are compared in classes of like length (below ``2**c`` bytes, at
    least 8), so a long field widens only its own class.
    """
    size = (ends - starts).ravel()
    size_class = np.maximum(np.frexp(size)[1], 3)
    buf = np.frombuffer(data, np.uint8)
    buf = np.concatenate([buf, np.zeros(1 << int(size_class.max(initial=3)), np.uint8)])
    key, firsts = np.empty(size.size, np.int64), []
    for c in np.unique(size_class).tolist():
        member = np.flatnonzero(size_class == c)
        width = size[member]
        cells = sliding_window_view(buf, 1 << c)[starts.ravel()[member]]
        cells *= np.arange(1 << c) < width[:, None]  # each field's own bytes,
        cells[np.arange(len(member)), width] = 1  # ended by a 1 so that trailing NULs count
        cells = cells.view(">u8" if c == 3 else f"S{1 << c}").ravel()  # one word sorts as an int
        order = np.argsort(cells)
        cells = cells[order]
        new = np.concatenate(([True], cells[1:] != cells[:-1]))
        key[member[order]] = np.cumsum(new) - 1 + sum(map(len, firsts))
        firsts.append(member[np.minimum.reduceat(order, np.flatnonzero(new))])
    first = np.concatenate(firsts or [np.empty(0, np.int64)])
    order = np.argsort(first)
    ids = np.empty_like(order)
    ids[order] = np.arange(len(order))
    return ids[key].reshape(starts.shape), first[order]


def _texts(data: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    return [data[s:e].decode() for s, e in zip(starts.tolist(), ends.tolist())]


def load_edge_list(path: str | Path, undirected: bool = False) -> tuple[Dataset, SnapshotGraph]:
    """Edge list TSV -> SnapshotGraph with labels interned in file order.

    ``undirected=True`` mirrors every arc, for edge lists that store one
    line per undirected edge; the input is then recorded as kind
    ``undirected_edge_list`` so reports re-verify with the same mirroring.
    """
    data, starts, ends = _table(path, (2,))[:3]  # lines unneeded: freed now, for peak RSS
    if not len(starts):
        raise DataFormatError(path, None, "edge list is empty")
    arcs, first = _intern(data, starts, ends)
    names = [data[s:e] for s, e in zip(starts.flat[first].tolist(), ends.flat[first].tolist())]
    del data, starts, ends
    rows = len(arcs)
    if undirected:
        arcs = np.concatenate([arcs, arcs[:, ::-1]])
    labels = list(map(bytes.decode, names))
    graph = SnapshotGraph.from_edges(arcs, n=len(labels), labels=labels)
    del arcs  # freed before the digest rows are written
    kind = "undirected_edge_list" if undirected else "edge_list"
    digest = hashlib.sha256()
    for block in _arc_rows(names, graph.src, graph.dst):
        digest.update(block)
    ds = Dataset(kind, str(path), digest.hexdigest(), rows)
    if graph.duplicate_count:
        logger.warning("%s: dropped %d duplicate arcs", path, graph.duplicate_count)
    return ds, graph


def _arc_rows(names: list[bytes], src: np.ndarray, dst: np.ndarray):
    """Blocks of the sorted ``src<TAB>dst`` rows, each ended by a newline."""
    n = len(names)
    heads = [name + b"\t" for name in names]  # a source sorts as in its row: "a\x01\tb" < "a\tc"
    by_head = sorted(range(n), key=heads.__getitem__)
    by_name = by_head  # the same order unless a name holds a byte below TAB
    if np.frombuffer(b"".join(names), np.uint8).min(initial=TAB) < TAB:
        by_name = sorted(range(n), key=names.__getitem__)
    rank_src, rank_dst = np.empty(n, np.int64), np.empty(n, np.int64)
    rank_src[by_head] = rank_dst[by_name] = np.arange(n)
    cells = [heads[i] for i in by_head] + [names[i] + b"\n" for i in by_name]
    blob = np.frombuffer(b"".join(cells), np.uint8)
    size = np.fromiter(map(len, cells), np.int64, 2 * n)
    start = np.cumsum(size) - size
    codes = rank_src[src]
    codes *= n
    codes += rank_dst[dst]
    codes.sort()
    for lo in range(0, len(codes), 1 << 12):
        s, d = np.divmod(codes[lo : lo + (1 << 12)], n)
        cell = np.stack([s, d + n], axis=1).ravel()  # each row is a head cell and a tail cell
        width = size[cell]
        at = np.repeat(start[cell] - (np.cumsum(width) - width), width)
        yield blob[at + np.arange(len(at))].tobytes()


def write_edge_tsv(graph: SnapshotGraph, path: str | Path) -> None:
    """Serialize to the canonical sorted TSV form (stable across reloads)."""
    labels = graph.labels if graph.labels is not None else map(str, range(graph.n))
    names = [label.encode() for label in labels]
    _atomic_write(path, b"".join(_arc_rows(names, graph.src, graph.dst)) or b"\n")


def load_category_tsv(path: str | Path) -> tuple[Dataset, CategoryGraph]:
    data, starts, ends, lines = _table(path, (3,))
    triples = list(zip(*(_texts(data, starts[:, k], ends[:, k]) for k in range(3))))
    if not triples:
        raise DataFormatError(path, None, "category file is empty")
    try:
        graph = CategoryGraph.from_edges(triples)
    except CategoryError as exc:
        raise DataFormatError(path, int(lines[exc.row]), str(exc)) from None
    canonical = sorted(map("\t".join, triples))
    return Dataset("category", str(path), _digest(canonical), len(triples)), graph


def load_samples(path: str | Path) -> tuple[Dataset, np.ndarray]:
    data, starts, ends, lines = _table(path, (1,))
    values = []
    for no, raw in zip(lines.tolist(), _texts(data, starts[:, 0], ends[:, 0])):
        # ASCII digits, as int() alone also reads 1_0, +5 and full-width digits
        v = int(raw) if raw.isascii() and raw.isdigit() and len(raw) < 19 else 0
        if v <= 0:
            raise DataFormatError(path, no, f"not a positive integer below 10**18: {raw!r}")
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
    nodes, node_starts, node_ends, node_lines = _table(nodes_path, (2, 3))
    edges, starts, ends, edge_lines = _table(edges_path, (2,))
    n = len(node_starts)
    # paper ids and citation ends interned together: an id that first
    # appears past the n paper ids is one that no paper has
    key, first_field = _intern(nodes + edges,
                               np.concatenate([node_starts[:, 0], starts.ravel() + len(nodes)]),
                               np.concatenate([node_ends[:, 0], ends.ravel() + len(nodes)]))
    row = np.where(first_field < n, first_field, -1)[key]  # the paper row of each field's id
    ids, years = (_texts(nodes, node_starts[:, k], node_ends[:, k]) for k in (0, 1))
    try:
        graph = CitationGraph.from_arrays(
            ids, years, row[:n], row[n:],
            lambda end: edges[starts.flat[end] : ends.flat[end]].decode())
    except PaperError as exc:
        first = "" if exc.first is None else f", first on line {node_lines[exc.first]}"
        raise DataFormatError(nodes_path, int(node_lines[exc.row]), f"{exc}{first}") from None
    except CitationError as exc:
        raise DataFormatError(edges_path, int(edge_lines[exc.row]), str(exc)) from None
    ds_nodes = Dataset("citation", str(nodes_path), _citation_digest(nodes_path), n)
    ds_edges = Dataset("citation", str(edges_path), _citation_digest(edges_path), len(starts))
    if graph.duplicate_count:
        logger.warning("%s: dropped %d duplicate citations", edges_path, graph.duplicate_count)
    return (ds_nodes, ds_edges), graph


def _citation_digest(path: str | Path) -> str:
    # role-independent: sorted non-empty rows, so either citation file can be
    # re-verified without knowing whether it held nodes or edges
    return _digest(sorted(filter(None, map(str.strip, _read_lines(path)))))


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
    # inputs are keyed by file name, or by path where distinct paths share a name
    by_path = {ds.path: ds.to_json() for ds in inputs or []}
    names = Counter(Path(p).name for p in by_path)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": kind,
        "inputs": {p if names[Path(p).name] > 1 else Path(p).name: meta
                   for p, meta in by_path.items()},
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


def verify_report_inputs(doc: dict) -> None:
    """Recompute the digest of every input at its recorded path; fail loudly on a mismatch."""
    for name, meta in doc.get("inputs", {}).items():
        path = Path(meta["path"])
        if meta["kind"] == "citation":
            fresh = _citation_digest(path)
        else:
            fresh = _LOADERS[meta["kind"]](path)[0].digest
        if fresh != meta["digest"]:
            raise ValueError(
                f"digest mismatch for input {name!r}: report has {meta['digest'][:12]}..., "
                f"file {path} now hashes to {fresh[:12]}..."
            )


# ---------------------------------------------------------------------------
# cache


def cache_key(operation: str, digest: str, params: dict) -> str:
    canon = json.dumps({"op": operation, "digest": digest, "params": params}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def cache_get(operation: str, digest: str, params: dict) -> bytes | None:
    """Byte-identical prior report from ``$KNOWGROW_CACHE_DIR``, or None on miss/corruption."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    entry = Path(root) / f"{cache_key(operation, digest, params)}.json"
    if not entry.exists():
        return None
    data = entry.read_bytes()
    try:
        json.loads(data)
    except json.JSONDecodeError:
        logger.warning("corrupt cache entry %s: treating as miss", entry)
        return None
    return data


def cache_put(operation: str, digest: str, params: dict, data: bytes) -> bool:
    """Store a report in ``$KNOWGROW_CACHE_DIR``; False when that is unset."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return False
    _atomic_write(Path(root) / f"{cache_key(operation, digest, params)}.json", data)
    return True
