"""End-to-end CLI runs: exit codes, determinism, report and CSV outputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import knowgrow
from knowgrow.cli import main
from knowgrow.dataio import CACHE_ENV, load_report, verify_report_inputs
from knowgrow.growth import QUASI_LINEAR_FAMILIES

# monthly article totals from a fitted quasi-linear curve (consecutive months)
ARTICLES_CSV = """date,value
2021-07,6347547
2021-08,6368943
2021-09,6390319
2021-10,6411676
2021-11,6433014
2021-12,6454334
2022-01,6475635
2022-02,6496917
"""


@pytest.fixture
def articles_csv(tmp_path):
    p = tmp_path / "articles.csv"
    p.write_text(ARTICLES_CSV)
    return p


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_import_leaves_out_scipy_integrate():
    src = str(Path(knowgrow.__file__).parents[1])
    code = "import sys, knowgrow.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


class TestFit:
    def test_auto_selects_quasi_linear(self, articles_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        plot = tmp_path / "fit.csv"
        rc = run("fit", "--input", articles_csv, "--family", "auto",
                 "--json", out, "--plot-csv", plot)
        assert rc == 0
        doc = load_report(out)
        best = doc["payload"]["best"]["model"]["family"]
        assert best in QUASI_LINEAR_FAMILIES
        assert doc["payload"]["best"]["mape"] <= 0.002
        header, *rows = plot.read_text().splitlines()
        assert header == "date,actual,fitted"
        assert len(rows) == 8
        assert "best family" in capsys.readouterr().out

    def test_single_family(self, articles_csv, tmp_path):
        out = tmp_path / "fit.json"
        assert run("fit", "--input", articles_csv, "--family", "linear", "--json", out) == 0
        doc = load_report(out)
        assert doc["payload"]["best"]["model"]["family"] == "linear"
        assert doc["payload"]["ranking"][0]["at_bound"] is False

    def test_quiet_suppresses_stdout(self, articles_csv, capsys):
        assert run("fit", "--input", articles_csv, "--quiet") == 0
        assert capsys.readouterr().out == ""

    def test_missing_input_is_exit_1(self, tmp_path, capsys):
        assert run("fit", "--input", tmp_path / "nope.csv") == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_input_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("date,value\n2020-01,1\n2020-03,2\n")
        assert run("fit", "--input", p) == 1
        assert "missing month 2020-02" in capsys.readouterr().err


class TestForecast:
    def test_fit_then_forecast(self, articles_csv, tmp_path):
        fit_json = tmp_path / "fit.json"
        run("fit", "--input", articles_csv, "--json", fit_json, "--quiet")
        plot = tmp_path / "fc.csv"
        out = tmp_path / "fc.json"
        rc = run("forecast", "--fit", fit_json, "--until", "2023-01",
                 "--json", out, "--plot-csv", plot)
        assert rc == 0
        doc = load_report(out)
        months = doc["payload"]["forecast"]["values"]
        assert len(months) == 11  # 2022-03 .. 2023-01
        assert plot.read_text().splitlines()[0] == "date,value"

    def test_catalog_model_curve(self, tmp_path):
        plot = tmp_path / "cats.csv"
        rc = run("forecast", "--model", "wiki_categories", "--from", "2023-01",
                 "--until", "2026-01", "--plot-csv", plot, "--quiet")
        assert rc == 0
        rows = [r.split(",") for r in plot.read_text().splitlines()[1:]]
        values = {date: float(v) for date, v in rows}
        assert values["2023-01"] == pytest.approx(2_334_875, rel=1e-3)
        assert values["2026-01"] == pytest.approx(2_799_895, rel=1e-3)

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert run("forecast", "--until", "2024-01") == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_catalog_model(self, capsys):
        assert run("forecast", "--model", "nope", "--from", "2020-01",
                   "--until", "2021-01") == 1
        assert "unknown catalog model" in capsys.readouterr().err


class TestBA:
    def test_deterministic_edge_lists(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run("ba", "--nodes", 100, "--m", 2, "--seed", 7,
                   "--edges-out", a, "--quiet") == 0
        assert run("ba", "--nodes", 100, "--m", 2, "--seed", 7,
                   "--edges-out", b, "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 2 * 98 + 1

    def test_compare_report_and_plot(self, tmp_path):
        out, plot = tmp_path / "ba.json", tmp_path / "ba.csv"
        rc = run("ba", "--nodes", 2000, "--m", 3, "--seed", 11,
                 "--json", out, "--plot-csv", plot, "--quiet")
        assert rc == 0
        doc = load_report(out)
        assert len(doc["payload"]["rows"]) == 4
        assert plot.read_text().splitlines()[0] == "degree,ccdf_empirical,ccdf_reference"

    def test_metrics_roundtrip_through_tsv(self, tmp_path):
        edges = tmp_path / "ba.tsv"
        run("ba", "--nodes", 300, "--m", 2, "--seed", 5, "--edges-out", edges, "--quiet")
        out = tmp_path / "metrics.json"
        rc = run("metrics", "--edges", edges, "--undirected", "--sources", 300, "--json", out)
        assert rc == 0
        payload = load_report(out)["payload"]
        assert payload["n"] == 300
        assert payload["arcs"] == 2 * (2 * 298 + 1)
        assert payload["mean_degree"] == pytest.approx(
            payload["density"] * (payload["n"] - 1), rel=1e-12
        )


class TestMetricsReportVerifies:
    def test_undirected_report_verifies_until_the_file_changes(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tb\nb\tc\n")
        out = tmp_path / "m.json"
        assert run("metrics", "--edges", edges, "--undirected", "--json", out, "--quiet") == 0
        verify_report_inputs(load_report(out))
        edges.write_text("a\tb\nb\tc\nc\ta\n")
        with pytest.raises(ValueError, match="digest mismatch for input 'e.tsv'"):
            verify_report_inputs(load_report(out))


class TestMetricsCache:
    def test_second_run_served_from_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        edges = tmp_path / "g.tsv"
        edges.write_text("a\tb\nb\tc\nc\ta\n")
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run("metrics", "--edges", edges, "--json", out1, "--quiet") == 0
        cache_files = list((tmp_path / "cache").glob("*.json"))
        assert len(cache_files) == 1
        # tamper with the cached payload to prove the second run reads it
        doc = json.loads(cache_files[0].read_text())
        doc["payload"]["density"] = 0.123456
        cache_files[0].write_text(json.dumps(doc))
        assert run("metrics", "--edges", edges, "--json", out2, "--quiet") == 0
        assert load_report(out2)["payload"]["density"] == 0.123456


class TestDisrupt:
    @pytest.fixture
    def citation_files(self, tmp_path):
        nodes = tmp_path / "nodes.tsv"
        nodes.write_text(
            "f\t1990\tphysics\nr\t1980\tphysics\ni1\t2000\ni2\t2001\nj1\t2002\nk1\t2003\n"
        )
        edges = tmp_path / "edges.tsv"
        edges.write_text("f\tr\ni1\tf\ni2\tf\nj1\tf\nj1\tr\nk1\tr\n")
        return nodes, edges

    def test_top_list(self, citation_files, tmp_path):
        nodes, edges = citation_files
        out = tmp_path / "d.json"
        rc = run("disrupt", "--nodes", nodes, "--edges", edges, "--key", "disruption",
                 "--top", 3, "--json", out, "--plot-csv", tmp_path / "hist.csv", "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        # r cites nothing, so each of its citers counts as focal-only: d = 1
        assert payload["top"][0]["paper"] == "r"
        assert payload["top"][0]["d"] == 1.0
        by_paper = {e["paper"]: e for e in payload["top"]}
        assert by_paper["f"]["d"] == pytest.approx(0.25)
        header = (tmp_path / "hist.csv").read_text().splitlines()[0]
        assert header == "d_bin_left,count"

    def test_year_filter(self, citation_files, tmp_path):
        nodes, edges = citation_files
        out = tmp_path / "d.json"
        rc = run("disrupt", "--nodes", nodes, "--edges", edges, "--key", "citations",
                 "--year-min", 1985, "--year-max", 1995, "--json", out, "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert [e["paper"] for e in payload["top"]] == ["f"]

    def test_zero_year_bound_is_kept(self, citation_files, tmp_path):
        nodes, edges = citation_files
        out = tmp_path / "d.json"
        rc = run("disrupt", "--nodes", nodes, "--edges", edges, "--year-max", 0,
                 "--json", out, "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert payload["year_range"] == [1900, 0]
        assert payload["top"] == []


class TestTaxonomy:
    @pytest.fixture
    def hierarchy(self, tmp_path):
        p = tmp_path / "cats.tsv"
        p.write_text(
            "Physics\tMathematics\tcategory\n"
            "Mathematics\tPhysics\tcategory\n"
            "Algebra\tMathematics\tcategory\n"
            "a1\tAlgebra\tarticle\n"
            "a2\tAlgebra\tarticle\n"
            "a3\tMathematics\tarticle\n"
        )
        return p

    def test_counts_and_cycles(self, hierarchy, tmp_path):
        out = tmp_path / "t.json"
        rc = run("taxonomy", "--edges", hierarchy, "--roots", "Mathematics",
                 "--depth", 3, "--cycles", "--json", out,
                 "--plot-csv", tmp_path / "levels.csv", "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert payload["articles"] == 3
        assert payload["cycles"] == [["Physics", "Mathematics"]]
        lines = (tmp_path / "levels.csv").read_text().splitlines()
        assert lines[0] == "depth,categories,articles"
        assert len(lines) == 5

    def test_huge_depth_without_plot(self, hierarchy, tmp_path):
        # no per-depth rows are built unless --plot-csv asks for them
        out = tmp_path / "t.json"
        rc = run("taxonomy", "--edges", hierarchy, "--roots", "Mathematics",
                 "--depth", 10**9, "--json", out, "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert (payload["categories"], payload["articles"]) == (3, 3)

    def test_preset_requires_membership(self, hierarchy, capsys):
        assert run("taxonomy", "--edges", hierarchy, "--preset", "wag_core") == 1
        err = capsys.readouterr().err
        assert "unknown category" in err

    def test_exactly_one_root_source(self, hierarchy, capsys):
        assert run("taxonomy", "--edges", hierarchy) == 1
        assert "exactly one" in capsys.readouterr().err


class TestIntersect:
    def test_prefix_fixture_scores_one(self, tmp_path):
        ctop = [f"p{i:03d}" for i in range(100)]
        (tmp_path / "ctop.txt").write_text("\n".join(ctop) + "\n")
        (tmp_path / "a.txt").write_text("\n".join(ctop[:10]) + "\n")
        (tmp_path / "b.txt").write_text("other1\nother2\n")
        out = tmp_path / "ix.json"
        rc = run("intersect", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt",
                 "--ctop", tmp_path / "ctop.txt", "--percentiles", "10,20",
                 "--json", out, "--plot-csv", tmp_path / "ix.csv", "--quiet")
        assert rc == 0
        rows = load_report(out)["payload"]["rows"]
        assert rows[0]["a_frac_of_set"] == 1.0
        assert rows[0]["b_frac_of_set"] == 0.0
        header = (tmp_path / "ix.csv").read_text().splitlines()[0]
        assert header.startswith("percentile,")


class TestDistfit:
    def test_lognormal(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = np.maximum(1, rng.lognormal(7.0, 1.0, size=5000).astype(int))
        (tmp_path / "sizes.txt").write_text("\n".join(map(str, samples)) + "\n")
        out = tmp_path / "ln.json"
        rc = run("distfit", "--input", tmp_path / "sizes.txt", "--family", "lognormal",
                 "--json", out, "--plot-csv", tmp_path / "ln.csv", "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert payload["mu"] == pytest.approx(7.0, rel=0.05)

    def test_powerlaw(self, tmp_path):
        from _oracles import sample_discrete_powerlaw

        samples = sample_discrete_powerlaw(3.0, kmin=3, size=20000, seed=5)
        (tmp_path / "deg.txt").write_text("\n".join(map(str, samples)) + "\n")
        out = tmp_path / "pl.json"
        rc = run("distfit", "--input", tmp_path / "deg.txt", "--family", "powerlaw",
                 "--kmin", 3, "--json", out, "--quiet")
        assert rc == 0
        assert load_report(out)["payload"]["exponent"] == pytest.approx(3.0, abs=0.2)


class TestSegment:
    def test_break_detection(self, tmp_path):
        t = np.arange(1, 61)
        y = np.where(t <= 24, t**3, 13824 + 1728 * (t - 24))
        lines = ["date,value"]
        lines += [f"{2001 + (i // 12)}-{(i % 12) + 1:02d},{v}" for i, v in enumerate(y)]
        p = tmp_path / "s.csv"
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "seg.json"
        rc = run("segment", "--input", p, "--early-family", "polynomial3",
                 "--late-family", "linear", "--json", out, "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert abs(payload["break_index"] - 24) <= 2
        assert not payload["low_contrast"]


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [("--max-iter", "5"), ("--seed", "1")])
    def test_fit_takes_no_optimizer_or_seed_flag(self, flag, articles_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(articles_csv), *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,expected",
        [
            ("fit", "date,value"),
            ("metrics", "src<TAB>dst"),
            ("ba", "src<TAB>dst"),
            ("disrupt", "id<TAB>year"),
            ("disrupt", "citing<TAB>cited"),
            ("taxonomy", "child<TAB>parent<TAB>kind"),
            ("intersect", "one paper id per line"),
            ("distfit", "one positive integer per line"),
            ("segment", "date,value"),
            ("forecast", "catalog"),
        ],
    )
    def test_help_documents_formats(self, command, expected, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert expected in capsys.readouterr().out
