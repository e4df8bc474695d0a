#!/usr/bin/env python3
"""Disruption-index pipeline on a synthetic citation corpus.

Builds a random citation DAG with a planted set of heavily cited papers,
scores every paper, and prints how a sampled id set and the top-disruption
set overlap with prefixes of the citation ranking.
"""
import argparse

import numpy as np

from knowgrow.disruption import CitationGraph, d_index_all, intersect_analysis, rank


def build_corpus(n: int, seed: int) -> tuple[CitationGraph, list[str]]:
    rng = np.random.default_rng(seed)
    papers = [(f"p{i:05d}", 1950 + int(rng.integers(0, 60))) for i in range(n)]
    edges = []
    seen = set()
    for i in range(1, n):
        for j in rng.integers(0, i, size=5):
            j = int(j)
            if rng.random() < 0.7 and i > n // 20:
                j = int(rng.integers(0, min(i, n // 20)))  # concentrate citations
            if i != j and (i, j) not in seen:
                seen.add((i, j))
                edges.append((f"p{i:05d}", f"p{j:05d}"))
    return CitationGraph.build(papers, edges), [p for p, _ in papers]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--papers", type=int, default=10_000)
    parser.add_argument("--set-size", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    g, ids = build_corpus(args.papers, args.seed)
    counts, d = d_index_all(g)
    defined = d[counts.sum(axis=1) > 0]
    print(f"{args.papers} papers, {len(defined)} with defined disruption scores; "
          f"mean d = {defined.mean():+.4f}")

    ctop = [ids[i] for i in rank(g, g.citation_counts())]
    top_d = {ids[i] for i in rank(g, d, k=args.set_size)}
    rng = np.random.default_rng(args.seed + 1)
    sampled = set(rng.choice(ids, size=args.set_size, replace=False).tolist())

    print(f"\noverlap with citation-ranking prefixes (sets of {args.set_size}):")
    print(f"  {'prefix':>8}{'sampled':>10}{'top-d':>10}")
    for row in intersect_analysis(sampled, top_d, ctop, [5.0, 10.0, 20.0]):
        print(f"  {row['percentile']:>7.0f}%{row['a_frac_of_set']:>10.1%}"
              f"{row['b_frac_of_set']:>10.1%}")


if __name__ == "__main__":
    main()
