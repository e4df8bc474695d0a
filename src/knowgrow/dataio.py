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
fault to its line.  `_intern` is the one sort of the fields: it gives each
distinct field an id in first-appearance order and a rank in the order of
the field followed by a TAB, and the digest rows of edge lists and category
files are written in the order of those ranks.
Digests canonicalize before hashing: edge lists hash their sorted
``src<TAB>dst`` label rows (order-insensitive, the rows ``write_edge_tsv``
writes), category and citation files their sorted lines, series and
rankings hash in sequence order.  Reports are JSON documents embedding
``schema_version``, the tool version, and the digests of their inputs,
keyed by file name (by path where two inputs share a name); writes are
atomic (temp file + rename).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__, _lazy
from .months import add_months, month_ordinal

# executed when a loader first builds one of their types
disruption = _lazy("knowgrow.disruption")
fitting = _lazy("knowgrow.fitting")
graph_metrics = _lazy("knowgrow.graph_metrics")
taxonomy = _lazy("knowgrow.taxonomy")

__all__ = [
    "DataFormatError",
    "Dataset",
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

SCHEMA_VERSION = 1
CACHE_ENV = "KNOWGROW_CACHE_DIR"
TAB, NL = 9, 10

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


def load_series_csv(path: str | Path) -> tuple[Dataset, fitting.TimeSeries]:
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
    series = fitting.TimeSeries(origin=months[0], values=tuple(values), label=Path(path).stem)
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
    odd_line = np.searchsorted(line_end, odd)  # the line of each stripped field
    blank = lo == hi
    empty = odd[blank]
    n_empty = np.bincount(odd_line[blank], minlength=len(counts))
    keep = n_empty < counts  # lines of whitespace are skipped
    wrong = np.logical_and.reduce([counts != n for n in n_fields])
    faults = np.flatnonzero(keep & ((n_empty > 0) | wrong))
    if len(faults):
        line, want = int(faults[0]), " or ".join(map(str, n_fields))
        message = f"expected {want} tab-separated fields, got {counts[line]}"
        if counts[line] in n_fields:  # the count is right, so a field is empty
            message = f"empty field {empty[np.searchsorted(empty, first[line])] - first[line] + 1}"
        raise DataFormatError(path, line + 1, message)
    del line_end, counts, n_empty, wrong
    # the records' fields are picked from the separators, and a field starts
    # past the one before it: a full per-field starts array raised the peak RSS
    k = min(n_fields)
    records = np.flatnonzero(keep)
    pick = first[records][:, None] + np.arange(k)
    ends = seps[pick]
    pick -= 1
    starts = seps[pick]
    starts += 1
    starts[pick < 0] = 0
    del pick, seps
    place = odd - first[odd_line]  # each stripped field's place in its line
    held = keep[odd_line] & (place < k)
    at = np.searchsorted(records, odd_line[held]), place[held]
    starts[at], ends[at] = lo[held], hi[held]
    return data, starts, ends, records + 1


def _intern(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """Int32 ids of the fields ``data[starts:ends]`` in first-appearance order,
    each id's first field, and each id's rank among the sorted fields, each
    field followed by a TAB (the order of a row's source).

    Fields are sorted in classes of like length, so a long field widens only
    its own class: a class holds the fields below ``size = 2**c`` bytes (at
    least 8), and no shorter class holds them, so each field and its TAB fit
    a ``size``-byte cell, zero padded.  No field holds a TAB, so two cells are
    equal only for equal fields, and a cell sorts as its field and TAB do.
    """
    shape, starts = starts.shape, starts.ravel()
    width = np.subtract(ends.ravel(), starts, dtype=np.int32)
    top = max(3, int(width.max(initial=0)).bit_length())
    # a class's distinct cells are kept for the merge only if another class
    # is occupied: the classes of the shortest and the longest field differ
    merge = top > max(3, int(width.min(initial=0)).bit_length())
    buf = np.concatenate([np.frombuffer(data, np.uint8), np.zeros(1 << top, np.uint8)])
    key, firsts, heads, count = np.empty(len(width), np.int32), [], [], 0
    for c in range(3, top + 1):
        size, lo = 1 << c, 0 if c == 3 else 1 << (c - 1)
        member = np.flatnonzero((width >= lo) & (width < size))
        if not len(member):
            continue
        # the bytes past each field are set one column at a time, so no
        # (fields, size) mask is built
        cells, w = sliding_window_view(buf, size)[starts[member]], width[member]
        for j in range(size):
            column = cells[:, j]
            column[w == j] = TAB
            column[w < j] = 0
        del w, column
        cells = cells.view(">u8" if size == 8 else f"S{size}").ravel()  # one word sorts as an int
        order = np.argsort(cells)
        cells = cells[order]
        new = np.ones(len(cells), bool)
        np.not_equal(cells[1:], cells[:-1], out=new[1:])
        if merge:
            heads.append(cells[new])
        del cells
        ids = np.cumsum(new, dtype=np.int32)
        ids += count - 1
        key[member[order]] = ids
        del ids
        firsts.append(member[np.minimum.reduceat(order, np.flatnonzero(new))])
        count += len(firsts[-1])
    del buf, width
    # the classes merge at the narrower one's width: a wider cell cut there
    # holds no TAB, so it equals no cell of the narrower class
    rank = [np.arange(len(f)) for f in firsts]
    for c, wide in enumerate(heads):
        for c2, narrow in enumerate(heads[:c]):
            cut = wide.view(np.uint8).reshape(len(wide), -1)[:, : narrow.itemsize]
            cut = np.ascontiguousarray(cut).view(narrow.dtype).ravel()
            rank[c] += np.searchsorted(narrow, cut)
            rank[c2] += np.searchsorted(cut, narrow)
    del heads
    first = np.concatenate(firsts or [np.empty(0, np.int64)])
    order = np.argsort(first)
    ids = np.empty(len(order), np.int32)
    ids[order] = np.arange(len(order), dtype=np.int32)
    rank = np.concatenate(rank or [np.empty(0, np.int64)])[order]
    return np.take(ids, key, out=key).reshape(shape), first[order], rank


def _column(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The bytes of the (at least one) fields ``data[starts:ends]``, each followed by a TAB."""
    size = ends - starts + 1  # each field and the byte after it
    at = np.cumsum(size)
    column = np.frombuffer(data, np.uint8)[np.repeat(starts - at + size, size) + np.arange(at[-1])]
    column[at - 1] = TAB
    return column


def _texts(data: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The fields ``data[starts:ends]``, decoded."""
    if not len(starts):
        return []
    return _column(data, starts, ends).tobytes().decode().split("\t")[:-1]


def load_edge_list(
    path: str | Path, undirected: bool = False
) -> tuple[Dataset, graph_metrics.SnapshotGraph]:
    """Edge list TSV -> SnapshotGraph with labels interned in file order; the
    graph keeps the labels' bytes and decodes them when they are first read.

    ``undirected=True`` mirrors every arc, for edge lists that store one
    line per undirected edge, and the graph records that it is symmetric;
    the input is then recorded as kind ``undirected_edge_list`` so reports
    re-verify with the same mirroring.
    """
    data, starts, ends = _table(path, (2,))[:3]  # lines unneeded: freed now, for peak RSS
    if not len(starts):
        raise DataFormatError(path, None, "edge list is empty")
    arcs, first, rank = _intern(data, starts, ends)
    starts, ends = starts.flat[first], ends.flat[first]
    names = _column(data, starts, ends)
    width = ends - starts
    del data, starts, ends, first
    graph = graph_metrics.SnapshotGraph.from_edges(arcs, n=len(width), names=names,
                                                   mirror=undirected)
    rows = len(arcs)
    del arcs  # freed before the digest rows are written
    kind = "undirected_edge_list" if undirected else "edge_list"
    # a source sorts as in its row, "a\x01\tb" < "a\tc"; a target sorts alone,
    # in that same order unless a name holds a byte below TAB
    rank_dst = _label_rank(graph.labels) if names.min() < TAB else rank
    digest = hashlib.sha256()
    for block in _arc_rows(names, width, [(graph.src, rank, 0), (graph.dst, rank_dst, 0)]):
        digest.update(block)
    ds = Dataset(kind, str(path), digest.hexdigest(), rows)
    if graph.duplicate_count:
        print(f"{path}: dropped {graph.duplicate_count} duplicate arcs", file=sys.stderr)
    return ds, graph


def _label_rank(labels: list[str], end: str = "") -> np.ndarray:
    """Rank of each label followed by ``end`` in sorted order, which for
    `str` is the order of their UTF-8 bytes."""
    return np.argsort(sorted(range(len(labels)), key=lambda i: labels[i] + end))


def _arc_rows(names: np.ndarray, width: np.ndarray, columns):
    """Blocks of the sorted rows of tab-separated fields, each row ended by a newline.

    Name ``i`` is ``width[i]`` bytes of ``names``, which holds each name followed
    by a TAB.  Each column is ``(ids, rank, first)``: the rows' ids in it, each
    id's rank, and the name of id 0.  The rows sort by their ranks, column by
    column, packed into one int64 code; each block is gathered from ``names``.
    """
    at = np.cumsum(width + 1) - (width + 1)
    shape = [len(rank) for _, rank, _ in columns]
    codes = np.ravel_multi_index([rank[ids] for ids, rank, _ in columns], shape)
    codes.sort()
    by_rank = [np.argsort(rank) + first for _, rank, first in columns]  # each rank's name
    for lo in range(0, len(codes), 1 << 12):
        ranks = np.unravel_index(codes[lo : lo + (1 << 12)], shape)
        ids = np.stack([by[r] for by, r in zip(by_rank, ranks)], axis=1).ravel()
        block = _column(names, at[ids], at[ids] + width[ids])
        block[np.cumsum(width[ids] + 1)[len(shape) - 1 :: len(shape)] - 1] = NL  # last TABs
        yield block.tobytes()


def write_edge_tsv(graph: graph_metrics.SnapshotGraph, path: str | Path) -> None:
    """Serialize to the canonical sorted TSV form (stable across reloads)."""
    labels = graph.labels if graph.labels is not None else list(map(str, range(graph.n)))
    names = np.frombuffer("".join(label + "\t" for label in labels).encode(), np.uint8)
    width = np.fromiter((len(label.encode()) for label in labels), np.int64, len(labels))
    rows = _arc_rows(names, width, [(graph.src, _label_rank(labels, "\t"), 0),
                                    (graph.dst, _label_rank(labels), 0)])
    _atomic_write(path, b"".join(rows) or b"\n")


def load_category_tsv(path: str | Path) -> tuple[Dataset, taxonomy.CategoryGraph]:
    """Category TSV -> CategoryGraph, node names interned in file order apart
    from the kinds; only the distinct names and kinds are decoded, and a fault
    of the hierarchy names the first line of its triple.  The digest rows (the
    sorted lines, duplicates kept) are written from the ranks: in a line, each
    field but the last is followed by a TAB, as in its rank."""
    data, starts, ends, lines = _table(path, (3,))
    if not len(starts):
        raise DataFormatError(path, None, "category file is empty")
    links, first, rank = _intern(data, starts[:, :2], ends[:, :2])
    kind, kind_first, kind_rank = _intern(data, starts[:, 2], ends[:, 2])
    starts = np.concatenate([starts[:, :2].flat[first], starts[kind_first, 2]])
    ends = np.concatenate([ends[:, :2].flat[first], ends[kind_first, 2]])
    names, width, n = _column(data, starts, ends), ends - starts, len(first)
    texts = names.tobytes().decode().split("\t")[:-1]  # each node, then each kind
    try:
        graph = taxonomy.CategoryGraph.from_edges(links, kind, texts[:n], texts[n:])
    except taxonomy.CategoryError as exc:
        raise DataFormatError(path, int(lines[exc.row]), str(exc)) from None
    digest = hashlib.sha256()
    for block in _arc_rows(names, width, [(links[:, 0], rank, 0), (links[:, 1], rank, 0),
                                          (kind, kind_rank, n)]):
        digest.update(block)
    return Dataset("category", str(path), digest.hexdigest(), len(links)), graph


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
) -> tuple[tuple[Dataset, Dataset], disruption.CitationGraph]:
    """Citation graph from a nodes file and an edges file."""
    nodes, node_starts, node_ends, node_lines = _table(nodes_path, (2, 3))
    edges, starts, ends, edge_lines = _table(edges_path, (2,))
    n = len(node_starts)
    # paper ids and citation ends interned together: an id that first
    # appears past the n paper ids is one that no paper has
    key, first_field, _ = _intern(nodes + edges,
                                  np.concatenate([node_starts[:, 0], starts.ravel() + len(nodes)]),
                                  np.concatenate([node_ends[:, 0], ends.ravel() + len(nodes)]))
    row = np.where(first_field < n, first_field, -1)[key]  # the paper row of each field's id
    ids, years = (_texts(nodes, node_starts[:, k], node_ends[:, k]) for k in (0, 1))
    try:
        graph = disruption.CitationGraph.from_arrays(
            ids, years, row[:n], row[n:],
            lambda end: edges[starts.flat[end] : ends.flat[end]].decode())
    except disruption.PaperError as exc:
        first = "" if exc.first is None else f", first on line {node_lines[exc.first]}"
        raise DataFormatError(nodes_path, int(node_lines[exc.row]), f"{exc}{first}") from None
    except disruption.CitationError as exc:
        raise DataFormatError(edges_path, int(edge_lines[exc.row]), str(exc)) from None
    ds_nodes = Dataset("citation", str(nodes_path), _citation_digest(nodes_path), n)
    ds_edges = Dataset("citation", str(edges_path), _citation_digest(edges_path), len(starts))
    if graph.duplicate_count:
        print(f"{edges_path}: dropped {graph.duplicate_count} duplicate citations", file=sys.stderr)
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
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a report is a JSON object, not {type(doc).__name__}")
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


def _fits(value, shape) -> bool:
    """Whether a JSON value has ``shape``: a type, or a dict of each key's shape."""
    if isinstance(shape, dict):
        return (isinstance(value, dict) and value.keys() == shape.keys()
                and all(_fits(value[k], sub) for k, sub in shape.items()))
    return type(value) is shape  # so neither True nor 1 reads as a float


def cache_get(operation: str, digest: str, params: dict,
              shape: dict | None = None) -> bytes | None:
    """Byte-identical prior report from ``$KNOWGROW_CACHE_DIR``, or None on
    miss/corruption; with ``shape`` (see `_fits`), a payload of another shape is corrupt."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    entry = Path(root) / f"{cache_key(operation, digest, params)}.json"
    if not entry.exists():
        return None
    data = entry.read_bytes()
    try:
        doc = json.loads(data)
    except ValueError:
        doc = None
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if not isinstance(payload, dict) or shape is not None and not _fits(payload, shape):
        print(f"corrupt cache entry {entry}: treating as miss", file=sys.stderr)
        return None
    return data


def cache_put(operation: str, digest: str, params: dict, data: bytes) -> bool:
    """Store a report in ``$KNOWGROW_CACHE_DIR``; False when that is unset."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return False
    _atomic_write(Path(root) / f"{cache_key(operation, digest, params)}.json", data)
    return True
