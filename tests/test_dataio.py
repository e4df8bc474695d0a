"""Loaders, report round-trips, digests, and the result cache."""
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowgrow import dataio
from knowgrow.dataio import (
    CACHE_ENV,
    DataFormatError,
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
    verify_report_inputs,
)
from knowgrow.fitting import FitResult, fit_points
from knowgrow.graph_metrics import SnapshotGraph
from knowgrow.months import parse_month

from _oracles import edge_list_rows, tsv_records


def write(path, text):
    path.write_text(text)
    return path


class TestSeriesLoader:
    def test_valid_three_rows(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01,10\n2020-02,11\n2020-03,12\n")
        ds, series = load_series_csv(p)
        assert len(series) == 3
        assert series.origin == "2020-01"
        assert ds.kind == "series"
        assert ds.rows == 3

    def test_gap_names_missing_month(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01,10\n2020-03,12\n")
        with pytest.raises(DataFormatError, match="missing month 2020-02"):
            load_series_csv(p)

    def test_duplicate_month(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01,10\n2020-01,11\n2020-02,3\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_series_csv(p)

    def test_bad_header_and_bad_value_carry_line_numbers(self, tmp_path):
        p = write(tmp_path / "s.csv", "month,value\n2020-01,10\n")
        with pytest.raises(DataFormatError, match=r"s\.csv:1"):
            load_series_csv(p)
        p2 = write(tmp_path / "s2.csv", "date,value\n2020-01,10\n2020-02,oops\n")
        with pytest.raises(DataFormatError, match=r"s2\.csv:3"):
            load_series_csv(p2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        p = write(tmp_path / "s.csv", f"date,value\n2020-01,10\n2020-02,{value}\n")
        with pytest.raises(DataFormatError, match=r"s\.csv:3: value must be finite"):
            load_series_csv(p)

    @pytest.mark.parametrize("row, message", [
        ("2020-02,1_000", "not a number: '1_000'"),
        ("2020-02,１２", "not a number: '１２'"),
        ("２０２０-02,12", "not an ISO year-month"),
    ])
    def test_only_ascii_spellings_load(self, tmp_path, row, message):
        p = write(tmp_path / "s.csv", f"date,value\n2020-01,10\n{row}\n")
        with pytest.raises(DataFormatError, match=r"s\.csv:3: " + re.escape(message)):
            load_series_csv(p)

    @pytest.mark.parametrize("month", ["２０２０-01", "2020-01\n"])
    def test_a_month_is_ascii_digits_alone(self, month):
        with pytest.raises(ValueError, match="not an ISO year-month"):
            parse_month(month)

    def test_order_sensitive_digest(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,value\n2020-01,10\n2020-02,11\n")
        b = write(tmp_path / "b.csv", "date,value\n2020-01,11\n2020-02,10\n")
        assert load_series_csv(a)[0].digest != load_series_csv(b)[0].digest


class TestEdgeLoader:
    def test_duplicate_edge_reduces_count(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\tb\na\tb\nb\tc\n")
        ds, g = load_edge_list(p)
        assert g.arc_count == 2
        assert g.duplicate_count == 1

    def test_column_count_error(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\tb\na\n")
        with pytest.raises(DataFormatError, match=r"e\.tsv:2"):
            load_edge_list(p)

    def test_order_insensitive_digest(self, tmp_path):
        a = write(tmp_path / "a.tsv", "a\tb\nb\tc\n")
        b = write(tmp_path / "b.tsv", "b\tc\na\tb\n")
        assert load_edge_list(a)[0].digest == load_edge_list(b)[0].digest

    def test_same_bytes_different_name_same_digest(self, tmp_path):
        a = write(tmp_path / "one.tsv", "a\tb\nb\tc\n")
        b = write(tmp_path / "two.tsv", "a\tb\nb\tc\n")
        assert load_edge_list(a)[0].digest == load_edge_list(b)[0].digest

    def test_undirected_mirroring(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\tb\n")
        _, g = load_edge_list(p, undirected=True)
        assert g.arc_count == 2

    def test_empty_node_id_names_its_line(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\tb\n\n \tc\n")
        with pytest.raises(DataFormatError, match=r"e\.tsv:3: empty field 1"):
            load_edge_list(p)

    def test_blank_lines_only_is_empty(self, tmp_path):
        p = write(tmp_path / "e.tsv", "\n  \n\t\n")
        with pytest.raises(DataFormatError, match="edge list is empty"):
            load_edge_list(p)

    def test_rows_count_records_not_blank_lines(self, tmp_path):
        p = write(tmp_path / "e.tsv", "\na\tb\n\nb\tc\n\n")
        assert load_edge_list(p)[0].rows == 2
        ds, g = load_edge_list(p, undirected=True)
        assert (ds.rows, g.arc_count) == (2, 4)

    def test_undirected_load_records_its_kind(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\tb\n")
        assert load_edge_list(p)[0].kind == "edge_list"
        ds = load_edge_list(p, undirected=True)[0]
        assert ds.kind == "undirected_edge_list"
        doc = json.loads(report_bytes({}, "metrics", [ds]))
        assert doc["inputs"]["e.tsv"]["kind"] == "undirected_edge_list"
        verify_report_inputs(doc)

    def test_unlabeled_graph_sorts_ids_as_strings(self, tmp_path):
        # the ids are written in arc order, one line per undirected edge, and
        # the digest rows of the file read back sort them as strings
        out = tmp_path / "g.tsv"
        dataio._write_edges(out, SnapshotGraph.from_edges([(2, 10), (10, 11)], n=12, mirror=True))
        assert out.read_text() == "2\t10\n10\t11\n"
        assert load_edge_list(out)[0].digest == hashlib.sha256(b"10\t11\n2\t10\n").hexdigest()

    # traced peak of an --undirected load over the file's bytes: 11.6 on the
    # file below with numpy 2.4; the rest leaves room for other numpy builds
    PEAK_PER_FILE_BYTE = 13

    def test_ingest_memory_is_bounded_by_the_file(self, tmp_path):
        import tracemalloc

        rng = np.random.default_rng(0)
        p = tmp_path / "e.tsv"
        ends = rng.integers(0, 30_000, (100_000, 2)).tolist()
        p.write_text("".join(f"v{a:x}\tv{b:x}\n" for a, b in ends))
        tracemalloc.start()
        try:
            load_edge_list(p, undirected=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_PER_FILE_BYTE * p.stat().st_size

    def test_ba_edge_write_memory_is_bounded_by_the_file(self, tmp_path):
        # traced peak of the `ba --edges-out` write alone over the bytes it
        # writes: 2.2 with numpy 2.4, where an f-string per row reads 13.2
        import tracemalloc

        from knowgrow import ba

        g = ba.generate(ba.BAParams(n=100_000, m=3))
        p = tmp_path / "e.tsv"
        tracemalloc.start()
        try:
            dataio._write_edges(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_PER_FILE_BYTE * p.stat().st_size

    def test_canonicalization_idempotent(self, tmp_path):
        # a file and its digest rows hash alike: neither a duplicate line
        # nor the line order moves an edge list's digest
        ds1 = load_edge_list(write(tmp_path / "e.tsv", "b\tc\na\tb\nb\tc\n"))[0]
        ds2 = load_edge_list(write(tmp_path / "canon.tsv", "a\tb\nb\tc\n"))[0]
        assert ds1.digest == ds2.digest == hashlib.sha256(b"a\tb\nb\tc\n").hexdigest()

    def test_labels_are_decoded_when_first_read(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.tsv", "caf\u00e9\tb\nb\ta\n"))[1]
        assert g.names.tobytes() == "caf\u00e9\tb\ta\t".encode()
        assert "labels" not in vars(g)  # no metric reads them
        assert g.labels == ["caf\u00e9", "b", "a"]
        assert g.labels is g.labels


class TestOtherLoaders:
    def test_samples(self, tmp_path):
        p = write(tmp_path / "sizes.txt", "5\n10\n4\n")
        ds, arr = load_samples(p)
        assert arr.tolist() == [5, 10, 4]
        bad = write(tmp_path / "bad.txt", "5\n-1\n")
        with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
            load_samples(bad)

    @pytest.mark.parametrize("raw", ["1_0", "+5", "５", "0", "-1", "1e3", "9" * 19])
    def test_a_sample_is_ascii_digits(self, tmp_path, raw):
        p = write(tmp_path / "k.txt", f"5\n\n{raw}\n")
        where = r"k\.txt:3: not a positive integer below 10\*\*18: "
        with pytest.raises(DataFormatError, match=where + re.escape(repr(raw))):
            load_samples(p)

    def test_id_list_preserves_order(self, tmp_path):
        p = write(tmp_path / "ids.txt", "z9\na1\nm5\n")
        ds, ids = load_id_list(p)
        assert ids == ["z9", "a1", "m5"]

    def test_category_kind_error_line(self, tmp_path):
        p = write(tmp_path / "c.tsv", "A\tB\tcategory\nX\tA\tpage\n")
        with pytest.raises(DataFormatError, match=r"c\.tsv:2"):
            load_category_tsv(p)

    def test_category_empty_id_names_its_line(self, tmp_path):
        p = write(tmp_path / "c.tsv", "A\tB\tcategory\n \tA\tarticle\n")
        with pytest.raises(DataFormatError, match=r"c\.tsv:2: empty field 1"):
            load_category_tsv(p)

    def test_category_round_trip(self, tmp_path):
        p = write(tmp_path / "c.tsv", "Algebra\tMathematics\tcategory\na1\tAlgebra\tarticle\n")
        ds, g = load_category_tsv(p)
        assert len(g) == 3

    # traced peak over the file's bytes on a file of the benchmark's shape:
    # 5000 categories, a hub of 15 000 articles and 15 000 other articles
    PEAK_PER_FILE_BYTE = TestEdgeLoader.PEAK_PER_FILE_BYTE

    def test_category_ingest_memory_is_bounded_by_the_file(self, tmp_path):
        import tracemalloc

        rng = np.random.default_rng(0)
        cats = [f"Category:{v:x}" for v in rng.permutation(5000).tolist()]
        arts = [f"Article:{v:x}" for v in rng.permutation(30_000).tolist()]
        lines = []
        for i in range(1, 5000):  # one or two older parents
            for p in {int(rng.integers(0, i)) for _ in range(1 + (rng.random() < 0.3))}:
                lines.append(f"{cats[i]}\t{cats[p]}\tcategory")
        for a in range(30_000):  # the hub, or any category, and sometimes one more
            home = 7 if a < 15_000 else int(rng.integers(0, 5000))
            for c in {home, int(rng.integers(0, 5000))} if rng.random() < 0.2 else {home}:
                lines.append(f"{arts[a]}\t{cats[c]}\tarticle")
        rng.shuffle(lines)
        p = write(tmp_path / "c.tsv", "\n".join(lines) + "\n")
        load_category_tsv(write(tmp_path / "warm.tsv", "a\tb\tarticle\n"))  # imports scipy
        tracemalloc.start()
        try:
            load_category_tsv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_PER_FILE_BYTE * p.stat().st_size

    def test_citation_pair(self, tmp_path):
        nodes = write(tmp_path / "n.tsv", "a\t2000\nb\t1990\tphysics\n")
        edges = write(tmp_path / "e.tsv", "a\tb\n")
        (dsn, dse), g = load_citation(nodes, edges)
        assert len(g) == 2
        assert dsn.digest != dse.digest

    def test_citation_duplicates_dropped_with_warning(self, tmp_path, capsys):
        nodes = write(tmp_path / "n.tsv", "a\t2000\nb\t1990\n")
        edges = write(tmp_path / "e.tsv", "a\tb\na\tb\n")
        (_, dse), g = load_citation(nodes, edges)
        assert dse.rows == 2
        assert g.duplicate_count == 1
        assert g.citation_counts().tolist() == [0, 1]
        assert capsys.readouterr().err == f"{edges}: dropped 1 duplicate citations\n"

    @pytest.mark.parametrize(
        "node_text, edge_text, where",
        [
            ("a\t2000\n\t2001\n", "", r"n\.tsv:2: empty field 1"),
            # a paper without a field leaves the column out; an empty one is malformed
            ("a\t2000\nb\t2001\t\n", "", r"n\.tsv:2: empty field 3"),
            ("a\t2000\nb\t2001\n", "a\tb\nb\t \n", r"e\.tsv:2: empty field 2"),
        ],
    )
    def test_citation_empty_field_names_its_line(self, tmp_path, node_text, edge_text, where):
        nodes = write(tmp_path / "n.tsv", node_text)
        edges = write(tmp_path / "e.tsv", edge_text)
        with pytest.raises(DataFormatError, match=where):
            load_citation(nodes, edges)

    def test_citation_unknown_id(self, tmp_path):
        nodes = write(tmp_path / "n.tsv", "a\t2000\n")
        edges = write(tmp_path / "e.tsv", "a\tghost\n")
        with pytest.raises(DataFormatError, match="unknown"):
            load_citation(nodes, edges)


class TestGoldenDigests:
    """Digests pinned to fixed values, so reports written earlier still verify."""

    EDGES = "a\tb\nb\tc\na\tb\nc\tc\nc\ta\nd\tb\n"  # a repeat and a self-loop

    def test_series(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01,10\n2020-02,11.5\n2020-03,1e3\n")
        assert load_series_csv(p)[0].digest == (
            "4daa126c77fdf4496b664ef63ceb5f4daa50f275a68fce790d94506d044b6f12"
        )

    def test_edge_list_with_duplicates_and_self_loops(self, tmp_path):
        ds, g = load_edge_list(write(tmp_path / "e.tsv", self.EDGES))
        assert ds.digest == "d250222bfdd7796d8cd54c269caae291582978be5af9a8db9a91b4b7025f0237"
        # labels a, b, c, d -> 0..3; arcs deduplicated in (src, dst) order
        assert list(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (1, 2), (2, 0), (3, 1)]
        assert (g.duplicate_count, g.self_loop_count) == (1, 1)

    def test_labels_follow_first_appearance_not_sorted_order(self, tmp_path):
        ds, g = load_edge_list(write(tmp_path / "e.tsv", "z\ty\ny\tx\nx\tz\n"))
        assert g.labels == ["z", "y", "x"]
        assert sorted(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (1, 2), (2, 0)]
        assert ds.rows == 3

    def test_edge_list_undirected(self, tmp_path):
        ds, g = load_edge_list(write(tmp_path / "e.tsv", self.EDGES), undirected=True)
        assert ds.digest == "872ae742dec68f7d664214949094ef877bf1f0a62e67f4c55ed73b5781b099a9"
        assert list(zip(g.src.tolist(), g.dst.tolist())) == [
            (0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (3, 1)
        ]
        assert (g.duplicate_count, g.self_loop_count) == (2, 2)

    def test_category(self, tmp_path):
        p = write(
            tmp_path / "c.tsv",
            "Algebra\tMathematics\tcategory\nMathematics\tAlgebra\tcategory\n"
            "a1\tAlgebra\tarticle\na1\tAlgebra\tarticle\n",
        )
        assert load_category_tsv(p)[0].digest == (
            "3132b6698d1ac86f53a5e0277b17d81fba17a1205fafb67c5d2e17fdb2dee559"
        )

    def test_category_digest_is_that_of_the_sorted_lines(self, tmp_path):
        # "Quantum\x01field\t" sorts before "Quantum\t"; one line is repeated
        lines = ["Physics\tNatural sciences\tcategory", "Quantum\x01field\tPhysics\tcategory",
                 "Quantum\tPhysics\tcategory", "Niels Bohr\tQuantum\x01field\tarticle",
                 "Erwin Schrödinger\tQuantum\tarticle", "Café physics\tPhysics\tcategory",
                 "Erwin Schrödinger\tQuantum\tarticle", "Zürich\tCafé physics\tarticle"]
        expected = hashlib.sha256(("\n".join(sorted(lines)) + "\n").encode()).hexdigest()
        p = tmp_path / "c.tsv"
        for order in (lines, lines[::-1]):  # each field padded with spaces to strip
            p.write_text("".join(" " + line.replace("\t", " \t  ") + " \n" for line in order))
            ds = load_category_tsv(p)[0]
            assert (ds.digest, ds.rows) == (expected, len(lines))

    def test_category_crlf_blank_line_spaces_and_accents(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes("Computer science\tScience\tcategory\r\n\r\n"
                      "Café culture\tComputer science\tcategory\r\n"
                      " Ada Lovelace \tComputer science\tarticle\r\n"
                      "École\tCafé culture\tarticle\r\n".encode())
        ds, g = load_category_tsv(p)
        assert (ds.digest, ds.rows) == (
            "798672c8779e21759d9a7665d5944e6d031a580bcf38d705dc36a34730cc124d", 4)
        assert g.names == ["Computer science", "Science", "Café culture", "Ada Lovelace", "École"]
        assert g.is_category.tolist() == [True, True, True, False, False]
        assert (g.up.indptr.tolist(), g.up.indices.tolist()) == ([0, 1, 1, 2, 3, 4], [1, 0, 0, 2])

    def test_samples(self, tmp_path):
        p = write(tmp_path / "k.txt", "5\n10\n\n4\n")
        assert load_samples(p)[0].digest == (
            "866b1e16f2ca9b0ec86eb1d37d47f7ce961ebfc295344f04e4e115fdb1f0fed4"
        )

    def test_id_list(self, tmp_path):
        p = write(tmp_path / "i.txt", "z9\na1\n\nm5\n")
        assert load_id_list(p)[0].digest == (
            "5161b5a07d8f2d9c8c15ac1f4921ca4f25d066f811b4ba44c9d6ac0ce17aa249"
        )

    def test_citation(self, tmp_path):
        nodes = write(tmp_path / "n.tsv", "a\t2000\nb\t1990\tphysics\n")
        edges = write(tmp_path / "e.tsv", "a\tb\na\tb\n")
        (dsn, dse), _ = load_citation(nodes, edges)
        assert dsn.digest == "84dd6dba23724aa93b15dad495b9a3303705e8d325c5e7a5a293b7b8e0f9da7a"
        assert dse.digest == "a282b8f844e1e4be301185e4720d310311a48fd7fa4a2f052eaa47c6866298e4"


class TestLfAndCrlfFilesAgree:
    """Files with LF and with CRLF line ends load alike, and odd files load as before."""

    # prefixes, and lengths in several of the interning's size classes
    LABELS = (st.text(alphabet="!0ab~", min_size=1, max_size=12)
              | st.text(alphabet="!0ab~", min_size=13, max_size=70))

    @staticmethod
    def write_both(tmp_path, name, rows):
        """``rows`` once with LF line ends and once with CRLF."""
        text = "".join("\t".join(map(str, row)) + "\n" for row in rows)
        lf, crlf = tmp_path / f"lf-{name}", tmp_path / f"crlf-{name}"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        return lf, crlf

    @given(st.lists(st.tuples(LABELS, LABELS), max_size=40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_edge_lists_agree(self, tmp_path_factory, arcs, undirected):
        lf, crlf = self.write_both(tmp_path_factory.mktemp("e"), "e.tsv", arcs)
        if not arcs:
            for path in (lf, crlf):
                with pytest.raises(DataFormatError, match="edge list is empty"):
                    load_edge_list(path, undirected)
            return
        (ds1, g1), (ds2, g2) = (load_edge_list(p, undirected) for p in (lf, crlf))
        assert g1.labels == g2.labels == list(dict.fromkeys(x for arc in arcs for x in arc))
        assert g1.src.tolist() == g2.src.tolist() and g1.dst.tolist() == g2.dst.tolist()
        assert (ds1.rows, ds1.digest) == (ds2.rows, ds2.digest)
        assert (g1.duplicate_count, g1.self_loop_count) == (g2.duplicate_count, g2.self_loop_count)
        rows = sorted({f"{s}\t{d}" for s, d in arcs if s != d}
                      | ({f"{d}\t{s}" for s, d in arcs if s != d} if undirected else set()))
        assert ds1.digest == hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()

    @given(
        st.lists(LABELS, min_size=1, max_size=30, unique=True),
        st.lists(st.tuples(st.integers(1900, 2100), st.sampled_from(["", "physics"])),
                 min_size=30, max_size=30),
        st.lists(st.tuples(st.integers(0, 29), st.integers(1, 29)), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_citation_pairs_agree(self, tmp_path_factory, ids, years, pairs):
        tmp = tmp_path_factory.mktemp("c")
        papers = [(pid, year, *([fld] if fld else [])) for pid, (year, fld) in zip(ids, years)]
        # every pair cites another paper: the offset is never 0 modulo the paper count
        pairs = [(ids[i % len(ids)], ids[(i + k) % len(ids)]) for i, k in pairs
                 if k % len(ids)]
        nodes = self.write_both(tmp, "n.tsv", papers)
        edges = self.write_both(tmp, "e.tsv", pairs)
        ((n1, e1), g1), ((n2, e2), g2) = (load_citation(n, e) for n, e in zip(nodes, edges))
        assert g1.ids == g2.ids == ids
        assert g1.years.tolist() == g2.years.tolist()
        assert (g1.cites != g2.cites).nnz == 0
        assert g1.duplicate_count == g2.duplicate_count == len(pairs) - len(set(pairs))
        assert (n1.digest, n1.rows, e1.digest, e1.rows) == (n2.digest, n2.rows, e2.digest, e2.rows)

    # digests pinned at the commit before the byte reader, like TestGoldenDigests
    AB_BC = ("7482a2572c8623e3abc0ce677eb6daa8673344588bb7905dc0771cde230f0e4a",
             "e3bea5a17deb5c5f5355938d0d41f4edf1c81f6ae09d74a25ebddff0d1b36508")

    @pytest.mark.parametrize("data, digests, labels", [
        (b"a\tb\r\nb\tc\r\n", AB_BC, ["a", "b", "c"]),
        (b"a\tb\n\nb\tc\n", AB_BC, ["a", "b", "c"]),
        (b"a\tb \nb\tc\n", AB_BC, ["a", "b", "c"]),
        (b"a\tb\nb\tc", AB_BC, ["a", "b", "c"]),
        ("é\tb\nb\tc\n".encode(), (
            "cc87c4a0c14140e0bfec6cde1f93c88fc38424782e16f70fc915ac0f4906cc51",
            "d0af9287da34e32d9d153d436cb2d4313fa99fa99612fab46480b00a6936c740"),
         ["é", "b", "c"]),
        # "a\x01" sorts after "a", but its row "a\x01\tb" sorts before "a\tc"
        (b"a\x01\tb\na\tc\n", (
            "2e65c99ccd38834888e0494972426ec33bbd4e76bca78a640af26191f0f10cbc",
            "7bf42437628037e0ae7675e341c66a9b066bcd3cad1d330cef549062a7e27b7e"),
         ["a\x01", "b", "a", "c"]),
        # a trailing NUL keeps "a\x00" apart from "a"
        (b"a\x00\tb\na\tb\n", (
            "d0f11b2ef22175ea8bf671f1f21149560c2b16078e08bc6c92e74419fa8c45bc",
            "1b81b5f0fff5d9035c6a761fc9b83b8f72975d53c04fc854a06b8fab3aafa5a9"),
         ["a\x00", "b", "a"]),
    ], ids=["crlf", "blank-line", "trailing-space", "no-final-newline", "non-ascii",
            "byte-below-tab", "trailing-nul"])
    def test_odd_edge_lists_load_as_before(self, tmp_path, data, digests, labels):
        p = tmp_path / "e.tsv"
        p.write_bytes(data)
        ds, g = load_edge_list(p)
        assert (ds.digest, ds.rows, g.labels) == (digests[0], 2, labels)
        assert load_edge_list(p, undirected=True)[0].digest == digests[1]

    # ids that differ only in their last byte, at the edges of the size classes,
    # and ones that differ only in trailing NULs
    ALIKE = [stem + end for k in (1, 7, 8, 9, 15, 16, 17, 300)
             for stem in ["x" * (k - 1)] for end in "01yz"]

    @pytest.mark.parametrize("labels", [ALIKE, ["a", "a\x00", "a\x00\x00", "b\x00"]],
                             ids=["last-byte", "trailing-nul"])
    def test_interning_is_exact(self, tmp_path, labels):
        # a ring, and a star whose targets sort as names, not as sources
        rows = list(dict.fromkeys([*zip(labels, labels[1:] + labels[:1]),
                                   *((labels[0], x) for x in labels[1:])]))
        p = tmp_path / "e.tsv"
        p.write_bytes("".join(f"{a}\t{b}\n" for a, b in rows * 2).encode())
        ds, g = load_edge_list(p)
        assert g.labels == labels
        assert (ds.rows, g.duplicate_count) == (2 * len(rows), len(rows))
        text = "".join(row + "\n" for row in sorted(f"{a}\t{b}" for a, b in rows))
        assert ds.digest == hashlib.sha256(text.encode()).hexdigest()
        nodes = write(tmp_path / "n.tsv", "".join(f"{x}\t2000\n" for x in labels))
        assert load_citation(nodes, p)[1].ids == labels

    # labels of every size class, one 300 bytes long, bytes below TAB (which
    # order names apart from sources), NUL, shared prefixes and non-ASCII
    # letters; "a" then NULs ties with "a" in any narrower class's cells
    LABEL = (st.text(alphabet="ab\x00\x01éж", min_size=1, max_size=12)
             | st.sampled_from(["a", "a\x01", "ab", "a\x00", "a" * 8, "a" * 300, "ж" * 150,
                                "a" + "\x00" * 8, "a" + "\x00" * 20]))

    @given(st.lists(st.tuples(LABEL, LABEL), min_size=1, max_size=40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_digest_rows_follow_their_definition(self, tmp_path_factory, pairs, undirected):
        path = tmp_path_factory.mktemp("d") / "e.tsv"
        path.write_bytes("".join(f"{a}\t{b}\n" for a, b in pairs).encode())
        rows = edge_list_rows(pairs, undirected)
        ds = load_edge_list(path, undirected=undirected)[0]
        assert ds.digest == hashlib.sha256(rows).hexdigest()

    # titles of every size class up to 300 bytes, some sharing a prefix of 8,
    # 16 or 32 bytes, which puts titles of different classes side by side
    PREFIX = "Category:Science in Ghana by yea"
    TITLE = st.builds(lambda head, tail, k: (head + tail * k)[:150],
                      st.sampled_from(["", PREFIX[:8], PREFIX[:16], PREFIX]),
                      st.text(alphabet="ab \x00\x01éж", max_size=5),
                      st.sampled_from([1, 2, 8, 60])).filter(bool)

    @given(st.lists(TITLE, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_intern_ranks_the_fields_each_followed_by_a_tab(self, labels):
        widths = np.array([len(x.encode()) for x in labels])
        ends = np.cumsum(widths + 1) - 1
        ids, first, rank = dataio._intern("".join(x + "\t" for x in labels).encode(),
                                          ends - widths, ends)
        distinct = list(dict.fromkeys(labels))
        assert ids.tolist() == [distinct.index(x) for x in labels]
        assert first.tolist() == [labels.index(x) for x in distinct]
        cells = sorted(x.encode() + b"\t" for x in distinct)
        assert rank.tolist() == [cells.index(x.encode() + b"\t") for x in distinct]

    @pytest.mark.parametrize("data, where", [
        (b"a\tb\nb\tc\td\n", r"e\.tsv:2: expected 2 tab-separated fields, got 3"),
        (b"a\tb\nb\t\n", r"e\.tsv:2: empty field 2"),
        # \x0c is no line break: the file has two lines
        (b"a\tb\x0c\nc\td\te\n", r"e\.tsv:2: expected 2 tab-separated fields, got 3"),
    ], ids=["three-fields", "empty-field", "form-feed"])
    def test_odd_edge_list_faults_name_their_line(self, tmp_path, data, where):
        p = tmp_path / "e.tsv"
        p.write_bytes(data)
        with pytest.raises(DataFormatError, match=where):
            load_edge_list(p)

    @pytest.mark.parametrize("nodes, edges, digests", [
        (b"a\t2000\r\nb\t1990\tphysics\r\n", b"a\tb\r\n", (
            "84dd6dba23724aa93b15dad495b9a3303705e8d325c5e7a5a293b7b8e0f9da7a",
            "5dd1197866f479824d9b483e1b7ae9ad3e518f3b4fd447c6b92d127dda6178c5")),
        ("é\t2000\nb\t1990\n".encode(), "é\tb\n".encode(), (
            "74143120df31a6e639b590d9eabb0c871dc8cee294562644b4643165b7239e27",
            "8a860318e00d9bb123f65b0cdc4e5ece422068a20faedcbf4ff91d711ab1a70a")),
        (b" a\t2000\n\nb\t1990 \n", b"a \tb\n", (
            "9c7d1b55cb86824776c93e1575b935b3507ace4c3d07d7c80d71a5dcdacab0e1",
            "b19aebadae31b85e98b3a8adedc9ec8b497e522b99cf44455b10bf31d6fdeef8")),
    ], ids=["crlf", "non-ascii", "spaces-and-blank-line"])
    def test_odd_citation_pairs_load_as_before(self, tmp_path, nodes, edges, digests):
        (tmp_path / "n.tsv").write_bytes(nodes)
        (tmp_path / "e.tsv").write_bytes(edges)
        (dsn, dse), g = load_citation(tmp_path / "n.tsv", tmp_path / "e.tsv")
        assert (dsn.digest, dse.digest) == digests
        assert (g.years.tolist(), g.cites.nnz) == ([2000, 1990], 1)

    @pytest.mark.parametrize("year", ["2_000", "+2000", "１９９０", "2000\x00"])
    def test_only_ascii_digits_are_a_year(self, tmp_path, year):
        nodes = write(tmp_path / "n.tsv", f"a\t1990\nb\t{year}\n")
        edges = write(tmp_path / "e.tsv", "b\ta\n")
        where = r"n\.tsv:2: not a year: " + re.escape(repr(year))
        with pytest.raises(DataFormatError, match=where):
            load_citation(nodes, edges)


class TestTableReader:
    """`dataio._table` reads every file as the line-by-line oracle does."""

    # every character str.strip removes below U+3001 (line ends among them),
    # CRLF, and characters it keeps: NUL, \x01, a BOM, a zero-width space
    PIECES = ["a", "bc", "é", "\t", "\t", "\n", "\n", "\r\n", "\x00", "\x01", "\ufeff",
              "\u200b", *(c for c in map(chr, range(0x3001)) if c.isspace())]
    FIELD = st.lists(st.sampled_from(["ab"] * 20 + [c for c in PIECES if c not in "\t\n\r\n"]),
                     max_size=4).map("".join)
    LINE = st.tuples(st.lists(FIELD, min_size=1, max_size=4).map("\t".join),
                     st.sampled_from(["\n", "\r\n", "\r", ""])).map("".join)
    # free mixes of the pieces, and files of lines of one to four fields
    TEXT = (st.lists(st.sampled_from(PIECES), max_size=40).map("".join)
            | st.lists(LINE, max_size=8).map("".join))
    NOT_UTF8 = [b""] * 6 + [b"\xff", b"\xe2\x80", b"\xed\xa0\x80"]

    @staticmethod
    def outcome(read):
        try:
            return read()
        except DataFormatError as exc:
            return str(exc)
        except UnicodeDecodeError:
            return UnicodeDecodeError

    @staticmethod
    def table(path, n_fields):
        data, starts, ends, lines = dataio._table(path, n_fields)
        return [(no, [data[s:e].decode() for s, e in zip(srow, erow)])
                for no, srow, erow in zip(lines.tolist(), starts.tolist(), ends.tolist())]

    @given(TEXT, st.sampled_from(NOT_UTF8), st.integers(0, 80),
           st.sampled_from([(1,), (2,), (2, 3), (3,)]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_reader(self, tmp_path_factory, text, bad, at, n_fields):
        text = text.encode()
        path = tmp_path_factory.mktemp("t") / "t.tsv"
        path.write_bytes(text[:at] + bad + text[at:])
        k = min(n_fields)
        want = self.outcome(lambda: [(no, parts[:k]) for no, parts in tsv_records(path, n_fields)])
        assert self.outcome(lambda: self.table(path, n_fields)) == want


class TestReports:
    def test_round_trip_lossless(self, tmp_path):
        t = np.arange(1, 31, dtype=float)
        ds, series = load_series_csv(
            write(
                tmp_path / "s.csv",
                "date,value\n" + "\n".join(
                    f"2020-{m:02d},{100.37 + 3.7 * m!r}" for m in range(1, 13)
                ) + "\n",
            )
        )
        result = fit_points(series.t, series.y, "linear", series.origin)
        path = tmp_path / "fit.json"
        save_report(result.to_json(), path, "fit_result", [ds])
        doc = load_report(path)
        again = FitResult.from_json(doc["payload"])
        assert again.model == result.model
        assert again.mape == result.mape
        assert doc["kind"] == "fit_result"
        assert doc["schema_version"] == 1
        assert doc["tool_version"]

    def test_missing_version_rejected(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"schema_version": 1, "payload": {}}))
        with pytest.raises(ValueError, match="tool_version"):
            load_report(p)

    def test_tamper_detection(self, tmp_path):
        src = write(tmp_path / "e.tsv", "a\tb\nb\tc\n")
        ds, _ = load_edge_list(src)
        path = tmp_path / "report.json"
        save_report({"n": 3}, path, "metrics", [ds])
        doc = load_report(path)
        verify_report_inputs(doc)  # untouched: fine
        src.write_text("a\tb\nb\tc\nc\td\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_report_inputs(load_report(path))

    def test_citation_inputs_verify(self, tmp_path):
        nodes = write(tmp_path / "n.tsv", "a\t2000\nb\t1990\n")
        edges = write(tmp_path / "e.tsv", "a\tb\n")
        (dsn, dse), _ = load_citation(nodes, edges)
        path = tmp_path / "r.json"
        save_report({}, path, "disruption", [dsn, dse])
        verify_report_inputs(load_report(path))
        nodes.write_text("a\t2000\nb\t1991\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_report_inputs(load_report(path))

    @pytest.mark.parametrize("edited", ["a", "b"])
    def test_inputs_sharing_a_file_name_are_all_verified(self, tmp_path, edited):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        dsa, _ = load_id_list(write(tmp_path / "a" / "ids.txt", "p1\n"))
        dsb, _ = load_id_list(write(tmp_path / "b" / "ids.txt", "p2\n"))
        dsc, _ = load_id_list(write(tmp_path / "ctop.txt", "p1\np2\n"))
        path = tmp_path / "r.json"
        save_report({}, path, "intersect", [dsa, dsb, dsc])
        doc = load_report(path)
        assert sorted(doc["inputs"]) == sorted([dsa.path, dsb.path, "ctop.txt"])
        verify_report_inputs(doc)
        (tmp_path / edited / "ids.txt").write_text("p3\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_report_inputs(doc)

    def test_distinct_file_names_key_inputs(self, tmp_path):
        dsa, _ = load_id_list(write(tmp_path / "a.txt", "p1\n"))
        dsb, _ = load_id_list(write(tmp_path / "b.txt", "p2\n"))
        doc = json.loads(report_bytes({}, "intersect", [dsa, dsb, dsa]))
        assert doc["inputs"] == {"a.txt": dsa.to_json(), "b.txt": dsb.to_json()}


class TestCache:
    def test_put_then_get_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        data = report_bytes({"x": 1.5}, "metrics")
        assert cache_put("metrics", "abc", {"q": 0.9}, data)
        assert cache_get("metrics", "abc", {"q": 0.9}) == data

    def test_different_params_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        data = report_bytes({"x": 1}, "metrics")
        cache_put("metrics", "abc", {"q": 0.9}, data)
        assert cache_get("metrics", "abc", {"q": 0.95}) is None
        assert cache_get("other", "abc", {"q": 0.9}) is None

    def test_digest_keyed_not_path_keyed(self, tmp_path, monkeypatch):
        a = write(tmp_path / "one.tsv", "a\tb\n")
        b = write(tmp_path / "two.tsv", "a\tb\n")
        dsa, _ = load_edge_list(a)
        dsb, _ = load_edge_list(b)
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        data = report_bytes({"n": 2}, "metrics")
        cache_put("metrics", dsa.digest, {}, data)
        assert cache_get("metrics", dsb.digest, {}) == data

    @pytest.mark.parametrize(
        "corrupt", [b"{not json", b'{"payload": "\xc3\x28"}', b"[1,2]", b'{"payload": 5}'],
        ids=["not-json", "not-utf8", "not-an-object", "payload-not-an-object"],
    )
    def test_corrupt_entry_is_miss(self, tmp_path, monkeypatch, capsys, corrupt):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        data = report_bytes({"x": 1}, "metrics")
        cache_put("metrics", "abc", {}, data)
        entry = next(tmp_path.glob("*.json"))
        entry.write_bytes(corrupt)
        assert cache_get("metrics", "abc", {}) is None
        assert capsys.readouterr().err == f"corrupt cache entry {entry}: treating as miss\n"

    def test_disabled_without_configuration(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert cache_get("metrics", "abc", {}) is None
        assert not cache_put("metrics", "abc", {}, b"{}")

    def test_env_var_configures_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        data = report_bytes({"x": 2}, "metrics")
        assert cache_put("metrics", "zzz", {}, data)
        assert cache_get("metrics", "zzz", {}) == data
        assert (tmp_path / "cache").is_dir()
