import tempfile
from pathlib import Path

import numpy as np
import pytest

from knowgrow import ba
from knowgrow.dataio import load_category_tsv, load_citation


@pytest.fixture(scope="session")
def ba_large():
    """One shared BA(1e5, 3) run; several suites read it, nobody mutates it."""
    params = ba.BAParams(n=100_000, m=3, seed=20240601)
    return params, ba.generate(params)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_digraph(rng: np.random.Generator, n: int, n_edges: int):
    """Random simple digraph as a deduplicated edge array."""
    src = rng.integers(0, n, size=n_edges)
    dst = rng.integers(0, n, size=n_edges)
    keep = src != dst
    edges = np.unique(np.column_stack([src[keep], dst[keep]]), axis=0)
    return edges


def category_graph(triples: list[tuple[str, str, str]]):
    """The graph `load_category_tsv` reads from a file of the triples, one a line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "categories.tsv"
        path.write_text("".join(f"{c}\t{p}\t{k}\n" for c, p, k in triples), encoding="utf-8")
        return load_category_tsv(path)[1]


def citation_graph(papers: list[tuple], edges: list[tuple[str, str]]):
    """The graph `load_citation` reads from files of the ``(id, year[, field])``
    paper rows and the ``(citing, cited)`` pairs, one a line."""
    with tempfile.TemporaryDirectory() as tmp:
        nodes, cites = Path(tmp) / "papers.tsv", Path(tmp) / "cites.tsv"
        for path, rows in ((nodes, papers), (cites, edges)):
            path.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows),
                            encoding="utf-8")
        return load_citation(nodes, cites)[1]
