"""Loaders, report round-trips, digests, and the result cache."""
import json

import numpy as np
import pytest

from knowgrow.dataio import (
    CACHE_ENV,
    DataFormatError,
    cache_get,
    cache_put,
    load,
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
    write_edge_tsv,
)
from knowgrow.fitting import FitResult, fit
from knowgrow.graph_metrics import SnapshotGraph


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
        assert load(p, "undirected_edge_list")[0] == ds

    def test_unlabeled_graph_sorts_ids_as_strings(self, tmp_path):
        out1, out2 = tmp_path / "g1.tsv", tmp_path / "g2.tsv"
        write_edge_tsv(SnapshotGraph.from_edges([(2, 1), (10, 2)], n=11), out1)
        assert out1.read_text() == "10\t2\n2\t1\n"
        write_edge_tsv(load_edge_list(out1)[1], out2)
        assert out2.read_bytes() == out1.read_bytes()

    def test_canonicalization_idempotent(self, tmp_path):
        p = write(tmp_path / "e.tsv", "b\tc\na\tb\nb\tc\n")
        ds1, g1 = load_edge_list(p)
        out1 = tmp_path / "canon1.tsv"
        write_edge_tsv(g1, out1)
        ds2, g2 = load_edge_list(out1)
        out2 = tmp_path / "canon2.tsv"
        write_edge_tsv(g2, out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert ds1.digest == ds2.digest


class TestOtherLoaders:
    def test_samples(self, tmp_path):
        p = write(tmp_path / "sizes.txt", "5\n10\n4\n")
        ds, arr = load_samples(p)
        assert arr.tolist() == [5, 10, 4]
        bad = write(tmp_path / "bad.txt", "5\n-1\n")
        with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
            load_samples(bad)

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

    def test_citation_pair(self, tmp_path):
        nodes = write(tmp_path / "n.tsv", "a\t2000\nb\t1990\tphysics\n")
        edges = write(tmp_path / "e.tsv", "a\tb\n")
        (dsn, dse), g = load_citation(nodes, edges)
        assert len(g) == 2
        assert dsn.digest != dse.digest

    def test_citation_duplicates_dropped_with_warning(self, tmp_path, caplog):
        nodes = write(tmp_path / "n.tsv", "a\t2000\nb\t1990\n")
        edges = write(tmp_path / "e.tsv", "a\tb\na\tb\n")
        with caplog.at_level("WARNING"):
            (_, dse), g = load_citation(nodes, edges)
        assert dse.rows == 2
        assert g.duplicate_count == 1
        assert g.citation_counts().tolist() == [0, 1]
        assert "dropped 1 duplicate citations" in caplog.text

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

    def test_load_dispatch(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            load(tmp_path / "x", "parquet")
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "nope.csv", "series")
        with pytest.raises(ValueError, match="two files"):
            load(tmp_path / "x", "citation")


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
        result = fit(series, "linear")
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


class TestCache:
    def test_put_then_get_byte_identical(self, tmp_path):
        data = report_bytes({"x": 1.5}, "metrics")
        assert cache_put("metrics", "abc", {"q": 0.9}, data, cache_dir=tmp_path)
        assert cache_get("metrics", "abc", {"q": 0.9}, cache_dir=tmp_path) == data

    def test_different_params_miss(self, tmp_path):
        data = report_bytes({"x": 1}, "metrics")
        cache_put("metrics", "abc", {"q": 0.9}, data, cache_dir=tmp_path)
        assert cache_get("metrics", "abc", {"q": 0.95}, cache_dir=tmp_path) is None
        assert cache_get("other", "abc", {"q": 0.9}, cache_dir=tmp_path) is None

    def test_digest_keyed_not_path_keyed(self, tmp_path):
        a = write(tmp_path / "one.tsv", "a\tb\n")
        b = write(tmp_path / "two.tsv", "a\tb\n")
        dsa, _ = load_edge_list(a)
        dsb, _ = load_edge_list(b)
        data = report_bytes({"n": 2}, "metrics")
        cache_put("metrics", dsa.digest, {}, data, cache_dir=tmp_path)
        assert cache_get("metrics", dsb.digest, {}, cache_dir=tmp_path) == data

    def test_corrupt_entry_is_miss(self, tmp_path, caplog):
        data = report_bytes({"x": 1}, "metrics")
        cache_put("metrics", "abc", {}, data, cache_dir=tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_bytes(b"{not json")
        with caplog.at_level("WARNING"):
            assert cache_get("metrics", "abc", {}, cache_dir=tmp_path) is None
        assert "corrupt" in caplog.text

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
