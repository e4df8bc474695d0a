"""End-to-end CLI runs: exit codes, determinism, report and CSV outputs."""
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import knowgrow
from knowgrow.cli import _write_csv, build_parser, main
from knowgrow.dataio import CACHE_ENV, load_report, verify_report_inputs
from knowgrow.growth import QUASI_LINEAR_FAMILIES, STANDARD_FAMILIES

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


def _imports(module: str, *argv, executed: bool = False) -> set[str]:
    """Names in ``sys.modules`` after importing ``module`` in a fresh interpreter.

    Given ``argv``, the interpreter then runs ``module.main(argv)``, which
    must return or exit with 0; pass ``--quiet`` so stdout holds only the
    names.  ``executed=True`` leaves out the modules registered but not yet
    run, whose type is still the lazy loader's placeholder.
    """
    src = str(Path(knowgrow.__file__).parents[1])
    code = f"import sys, types, {module}\n"
    if argv:
        code += (f"try:\n    rc = {module}.main({[str(a) for a in argv]!r})\n"
                 "except SystemExit as exc:\n    rc = exc.code\nassert rc == 0, rc\n")
    names = "sys.modules"
    if executed:
        names = "(k for k, m in sys.modules.items() if type(m) is types.ModuleType)"
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(CACHE_ENV, None)  # a cache hit would skip the code under test
    out = subprocess.run(
        [sys.executable, "-c", code + f"print(*{names})"],
        capture_output=True, text=True, check=True, env=env,
    )
    return set(out.stdout.split())


def _scipy(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_package_import_loads_no_scipy():
    assert not _scipy(_imports("knowgrow"))


def test_cli_import_loads_no_scipy():
    assert not _scipy(_imports("knowgrow.cli"))


def test_intersect_loads_no_scipy(tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("a\nb\nc\n")
    assert not _scipy(_imports("knowgrow.cli", "intersect", "--a", ids, "--b", ids,
                               "--ctop", ids, "--json", tmp_path / "ix.json", "--quiet"))


# two years of monthly values: long enough for both sides of a segment split
SERIES_24 = "date,value\n" + "".join(
    f"{2020 + i // 12}-{i % 12 + 1:02d},{100 + i * i}\n" for i in range(24)
)

# the growth commands evaluate Li with the in-package Ei, so they load no
# scipy at all; --fit forecasts a log_integral fit report
GROWTH_COMMANDS = {
    "fit": ["fit", "--input", "s.csv", "--family", "auto"],
    "segment": ["segment", "--input", "s.csv"],
    "forecast-fit": ["forecast", "--fit", "li.json", "--until", "2023-06"],
    "forecast-model": ["forecast", "--model", "wiki_categories", "--from", "2020-01",
                       "--until", "2020-12"],
}


@pytest.mark.parametrize("case", sorted(GROWTH_COMMANDS))
def test_growth_command_loads_no_scipy(tmp_path, monkeypatch, case):
    (tmp_path / "s.csv").write_text(SERIES_24)
    monkeypatch.chdir(tmp_path)
    assert run("fit", "--input", "s.csv", "--family", "log_integral", "--json", "li.json",
               "--quiet") == 0
    modules = _imports("knowgrow.cli", *GROWTH_COMMANDS[case], "--json", "r.json", "--quiet")
    assert not _scipy(modules)


# command: (arguments, input files, scipy modules it must load, or None for no
# scipy at all); bounded Brent is in-package, so none of them loads scipy.optimize,
# and the graph commands count triangles in numpy, so none loads scipy.sparse
COMMAND_IMPORTS = {
    "ba": (["--nodes", "300", "--m", "2"], {}, {"scipy.special"}),
    "distfit": (["--input", "d.txt", "--family", "powerlaw", "--kmin", "1"],
                {"d.txt": "\n".join(map(str, range(1, 201)))}, {"scipy.special"}),
    "metrics": (["--edges", "e.tsv"], {"e.tsv": "a\tb\nb\tc\nc\ta\n"}, None),
    "metrics --no-clustering": (["--edges", "e.tsv", "--no-clustering"],
                                {"e.tsv": "a\tb\nb\tc\nc\ta\n"}, None),
}


@pytest.mark.parametrize("case", sorted(COMMAND_IMPORTS))
def test_command_loads_no_optimize(tmp_path, monkeypatch, case):
    args, files, loads = COMMAND_IMPORTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    modules = _imports("knowgrow.cli", case.split()[0], *args, "--json", "r.json", "--quiet")
    if loads is None:
        assert not _scipy(modules)
    else:
        assert loads <= modules
        assert "scipy.sparse" not in modules
    assert "scipy.optimize" not in modules


# command: (arguments, input files, report kind), each on a small fixture
OUTPUT_PATH = {
    "fit": (["--input", "s.csv", "--family", "linear"], {"s.csv": SERIES_24}, "fit_result"),
    "forecast": (["--model", "wiki_categories", "--from", "2020-01", "--until", "2020-12"], {},
                 "forecast"),
    "metrics": (["--edges", "e.tsv"], {"e.tsv": "a\tb\nb\tc\nc\ta\n"}, "metrics"),
    "ba": (["--nodes", "60", "--m", "2"], {}, "ba_compare"),
    "disrupt": (["--nodes", "n.tsv", "--edges", "c.tsv"],
                {"n.tsv": "a\t2000\nb\t1990\nc\t1995\n", "c.tsv": "a\tb\na\tc\nc\tb\n"},
                "disruption"),
    "taxonomy": (["--edges", "t.tsv", "--roots", "Root", "--cycles"],
                 {"t.tsv": "Child\tRoot\tcategory\na1\tChild\tarticle\n"}, "taxonomy"),
    "intersect": (["--a", "ids.txt", "--b", "ids.txt", "--ctop", "ids.txt"],
                  {"ids.txt": "a\nb\nc\n"}, "intersect"),
    "distfit": (["--input", "d.txt", "--family", "lognormal"],
                {"d.txt": "\n".join(map(str, range(1, 201)))}, "distfit"),
    "segment": (["--input", "s.csv"], {"s.csv": SERIES_24}, "segment"),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_PATH))
def test_one_output_path(tmp_path, monkeypatch, capsys, command):
    # main alone writes the handler's report and prints its summary
    args, files, kind = OUTPUT_PATH[command]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    parsed = build_parser().parse_args([command, *args])
    returned, _, _, summary = parsed.func(parsed)
    assert returned == kind
    assert run(command, *args, "--json", "r.json", "--quiet") == 0
    assert capsys.readouterr().out == ""
    assert load_report(tmp_path / "r.json")["kind"] == kind
    assert run(command, *args) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in summary)


# the package modules each command executes besides knowgrow, cli, dataio and months
EXECUTES = {
    "--version": set(),
    **dict.fromkeys(("fit", "forecast", "segment"), {"fitting", "growth", "_brent"}),
    **dict.fromkeys(("metrics", "distfit"), {"graph_metrics", "_brent"}),
    "ba": {"ba", "graph_metrics", "_brent"},
    "taxonomy": {"taxonomy"},
    **dict.fromkeys(("disrupt", "intersect"), {"disruption"}),
}


def _knowgrow(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "knowgrow"}


@pytest.mark.parametrize("command", sorted(EXECUTES))
def test_command_executes_only_its_modules(tmp_path, monkeypatch, command):
    args, files, _ = OUTPUT_PATH.get(command, ([], {}, None))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    executed = _knowgrow(_imports("knowgrow.cli", command, *args, "--quiet", executed=True))
    base = {"knowgrow", "knowgrow.cli", "knowgrow.dataio", "knowgrow.months"}
    assert executed == base | {f"knowgrow.{m}" for m in EXECUTES[command]}
    # the benchmark's tracer wraps functions in the modules registered by
    # `import knowgrow.cli`: a module first imported later would lose its spans
    assert executed <= _knowgrow(_imports("knowgrow.cli"))


# command: the (module, attribute) that the benchmark's tracer wraps and the command calls once
TRACED = {
    "taxonomy": ("knowgrow.taxonomy", "count_members"),
    "disrupt": ("knowgrow.disruption", "CitationGraph.build"),
    "fit": ("knowgrow.fitting", "select"),
}


@pytest.mark.parametrize("command", sorted(TRACED))
def test_command_calls_its_traced_function(tmp_path, monkeypatch, command):
    # the spy goes where perfbench/tracer.py puts its wrappers: on the module
    # attribute, or on the class's own entry as a classmethod
    module, attr = TRACED[command]
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    raw = owner.__dict__[attr]
    is_cm = isinstance(raw, classmethod)
    fn = raw.__func__ if is_cm else raw
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, classmethod(spy) if is_cm else spy)
    args, files, _ = OUTPUT_PATH[command]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert run(command, *args, "--quiet") == 0
    assert len(calls) == 1


def test_write_csv_rejects_unequal_columns(tmp_path):
    path = tmp_path / "p.csv"
    with pytest.raises(ValueError, match="zip"):
        _write_csv(str(path), ["x", "y"], [1, 2, 3], np.array([0.5, 0.25]))
    assert not path.exists()


# Outputs whose bytes are integers or single IEEE divisions, recorded before
# the handlers returned their reports: (argv, input files, {output: sha256}).
# The taxonomy depth runs past the node count, so the last rows repeat.
GOLDEN_OUTPUTS = {
    "taxonomy": (
        ["taxonomy", "--edges", "cats.tsv", "--roots", "Mathematics", "--depth", 8,
         "--cycles", "--json", "r.json", "--plot-csv", "p.csv"],
        {"cats.tsv": "Physics\tMathematics\tcategory\nMathematics\tPhysics\tcategory\n"
                     "Algebra\tMathematics\tcategory\na1\tAlgebra\tarticle\n"
                     "a2\tAlgebra\tarticle\na3\tMathematics\tarticle\n"},
        {"r.json": "1c4fef2c012233f220d67a422578a638a6a5f3fb917428df441cfec6b531fc8b",
         "p.csv": "f558f31ba9f771da8103b5ef09da2651527b94a70ab6a607faaa9ce704ee12bb"},
    ),
    "intersect": (
        ["intersect", "--a", "a.txt", "--b", "b.txt", "--ctop", "ctop.txt",
         "--percentiles", "5,10,18.4", "--json", "r.json", "--plot-csv", "p.csv"],
        {"a.txt": "".join(f"{i}\n" for i in range(1, 51)),
         "b.txt": "".join(f"{i}\n" for i in range(60, 81)),
         "ctop.txt": "".join(f"{i}\n" for i in range(1, 376))},
        {"r.json": "20ebc0c0741424d1c5ba37a63d1aea2494c132a252f077c9baf28154299f17a8",
         "p.csv": "fdf8d189a32b2cfdce40a86368ce50615ad4beb6543be5f5804e310c5cd3a2f0"},
    ),
    # a hub, a chain and a triangle, mirrored: total degrees 2, 4 and 16
    "metrics": (
        ["metrics", "--edges", "e.tsv", "--undirected", "--plot-csv", "p.csv"],
        {"e.tsv": "".join(f"h\tn{i}\n" for i in range(7))
                  + "h\tc0\nc0\tc1\nc1\tc2\nx\ty\ny\tz\nz\tx\n"},
        {"p.csv": "601d67c59b03cb9bd8b8a958a01d50ad7c1d6cfd00825161b243adffd29c729e"},
    ),
    "ba-edges-out": (
        ["ba", "--nodes", 200, "--m", 3, "--seed", 7, "--edges-out", "e.tsv"],
        {},
        {"e.tsv": "83cbc8895502debc0c9a439405e219654aa98e935b254993cef317f0dcd62890"},
    ),
    # labels of 5 digits; for m >= 4 the seed clique is written source-major
    # (0,1 0,2 0,3 1,2 ...), which a sort by (dst, src) would reorder
    "ba-edges-out-wide": (
        ["ba", "--nodes", 12000, "--m", 4, "--seed", 3, "--edges-out", "e.tsv"],
        {},
        {"e.tsv": "2e6464ca120ecc2530972d9db054030971c51af2cb14210def1c9a42aaccbe24"},
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_OUTPUTS))
def test_golden_output_bytes(tmp_path, monkeypatch, case):
    argv, files, digests = GOLDEN_OUTPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)  # relative paths: the report names its inputs as given
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert run(*argv, "--quiet") == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestFit:
    def test_auto_skips_families_with_more_parameters_than_the_series_allows(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("date,value\n2020-01,10\n2020-02,12\n2020-03,15\n2020-04,17\n2020-05,20\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--input", p, "--family", "auto", "--json", out, "--quiet") == 0
        ranked = {r["family"] for r in load_report(out)["payload"]["ranking"]}
        assert ranked == set(STANDARD_FAMILIES) - {"polynomial3"}  # 4 coefficients need 6 points

    def test_auto_fails_when_no_family_fits(self, tmp_path, capsys):
        p = tmp_path / "two.csv"
        p.write_text("date,value\n2020-01,10\n2020-02,12\n")
        assert run("fit", "--input", p, "--family", "auto", "--quiet") == 1
        assert "no family fits a series of 2 points" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, flag", [("fit", "--input"), ("metrics", "--edges")])
    def test_directory_input_is_exit_1(self, tmp_path, capsys, command, flag):
        assert run(command, flag, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_fit_rejects_other_report_kinds(self, tmp_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("p1\np2\n")
        report = tmp_path / "ix.json"
        assert run("intersect", "--a", ids, "--b", ids, "--ctop", ids,
                   "--json", report, "--quiet") == 0
        assert run("forecast", "--fit", report, "--until", "2030-01", "--quiet") == 1
        err = capsys.readouterr().err
        assert "fit_result" in err and "'intersect'" in err

    @pytest.mark.parametrize("text", ["[]", "5", '"fit_result"'])
    def test_fit_report_must_be_an_object(self, tmp_path, capsys, text):
        report = tmp_path / "r.json"
        report.write_text(text)
        assert run("forecast", "--fit", report, "--until", "2030-01") == 1
        assert capsys.readouterr().err == f"error: {report}: a report is a JSON object, " \
            f"not {type(json.loads(text)).__name__}\n"

    def test_fit_rejects_from(self, articles_csv, tmp_path, capsys):
        fit_json = tmp_path / "fit.json"
        assert run("fit", "--input", articles_csv, "--json", fit_json, "--quiet") == 0
        assert run("forecast", "--fit", fit_json, "--from", "1990-01",
                   "--until", "2023-01", "--quiet") == 1
        assert "--from applies to --model only" in capsys.readouterr().err


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

    def test_failed_compare_writes_no_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        assert run("ba", "--nodes", 5, "--m", 1, "--edges-out", edges, "--quiet") == 1
        assert "n >= 10" in capsys.readouterr().err
        assert not edges.exists()

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

    @pytest.mark.parametrize("payload", [{}, {"n": 3}], ids=["empty", "one-key"])
    def test_payload_missing_keys_is_recomputed(self, tmp_path, monkeypatch, capsys, payload):
        edges = tmp_path / "g.tsv"
        edges.write_text("a\tb\nb\tc\nc\ta\n")
        fresh, out = tmp_path / "fresh.json", tmp_path / "m.json"
        assert run("metrics", "--edges", edges, "--json", fresh, "--quiet") == 0
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        assert run("metrics", "--edges", edges, "--quiet") == 0
        entry = next((tmp_path / "cache").glob("*.json"))
        entry.write_text(json.dumps({"payload": payload}))
        assert run("metrics", "--edges", edges, "--json", out, "--quiet") == 0
        assert capsys.readouterr().err == f"corrupt cache entry {entry}: treating as miss\n"
        assert out.read_bytes() == fresh.read_bytes()
        assert json.loads(entry.read_text())["payload"] == load_report(fresh)["payload"]

    @pytest.mark.parametrize("key, value", [
        ("degree_entropy", 5), ("density", "0.5"), ("n", 3.0), ("self_loops", False),
        ("normalized_structural_entropy", {"in": 1.0, "out": 1.0, "total": None}),
        ("degree_entropy", {"in": 1.0, "out": 1.0}),
    ], ids=["entropy-number", "density-string", "n-float", "loops-bool", "entropy-null",
            "entropy-short"])
    def test_payload_of_other_types_is_recomputed(self, tmp_path, monkeypatch, capsys,
                                                  key, value):
        edges = tmp_path / "g.tsv"
        edges.write_text("a\tb\nb\tc\nc\ta\n")
        fresh, out = tmp_path / "fresh.json", tmp_path / "m.json"
        assert run("metrics", "--edges", edges, "--json", fresh, "--quiet") == 0
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        assert run("metrics", "--edges", edges, "--quiet") == 0
        entry = next((tmp_path / "cache").glob("*.json"))
        doc = json.loads(entry.read_text())
        doc["payload"][key] = value
        entry.write_text(json.dumps(doc))
        assert run("metrics", "--edges", edges, "--json", out, "--quiet") == 0
        assert capsys.readouterr().err == f"corrupt cache entry {entry}: treating as miss\n"
        assert out.read_bytes() == fresh.read_bytes()
        assert json.loads(entry.read_text())["payload"] == load_report(fresh)["payload"]


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
        rc = run("disrupt", "--nodes", nodes, "--edges", edges, "--year-min", 0,
                 "--year-max", 0, "--json", out, "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert payload["year_range"] == [0, 0]
        assert payload["top"] == []

    def test_year_max_beyond_int64(self, citation_files, tmp_path):
        nodes, edges = citation_files
        out = tmp_path / "d.json"
        rc = run("disrupt", "--nodes", nodes, "--edges", edges, "--key", "citations",
                 "--year-min", 2001, "--year-max", "99999999999999999999", "--json", out, "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert payload["year_range"] == [2001, 99999999999999999999]
        assert [e["paper"] for e in payload["top"]] == ["i2", "j1", "k1"]

    # A cyclic graph with a repeated citation, tied scores and citation
    # counts, and papers nobody engages with (undefined d).  The digests were
    # recorded before the scores became arrays; any change of a report byte
    # shows here.
    GOLDEN_NODES = ("a\t1990\nb\t1995\tphysics\nc\t2000\nd\t2005\ne\t2010\n"
                    "f\t1985\nu1\t2001\nu2\t1999\ng\t2003\nh\t1992\n")
    GOLDEN_EDGES = ("a\tb\nb\tc\nc\ta\nd\ta\nd\tb\ne\ta\ne\tc\n"
                    "f\tc\ng\td\ng\te\nd\te\nh\tf\nh\tf\n")
    GOLDEN_CSV = "fbc6adcc43f6f01fd95256bffea2358bdaf0607190680c0b9dfdfca32a016dcf"

    @pytest.mark.parametrize("key, years, report", [
        ("disruption", (), "636ef68656c7132d9e79c2c0bde9de4c00c87d863b889d7e0df171fde55ff2d1"),
        ("disruption", ("--year-min", 1990, "--year-max", 2005),
         "6aa8023a531a2030a6f15cf66e7c22785569b0189af4c9412513ddc2142f5694"),
        ("citations", (), "c90bd9d9487160304970424ab506c552f67a2b30c58139345e92bd42c3a03a34"),
        ("citations", ("--year-min", 1990, "--year-max", 2005),
         "6f3924e026178b56aedd80b5314995b5834f2a365a196781b7a6c719f0821e63"),
    ], ids=["disruption", "disruption-years", "citations", "citations-years"])
    def test_golden_report_bytes(self, tmp_path, monkeypatch, key, years, report):
        monkeypatch.chdir(tmp_path)  # relative paths: the report names its inputs as given
        Path("nodes.tsv").write_text(self.GOLDEN_NODES)
        Path("edges.tsv").write_text(self.GOLDEN_EDGES)
        assert run("disrupt", "--nodes", "nodes.tsv", "--edges", "edges.tsv", "--key", key,
                   "--top", 6, *years, "--json", "r.json", "--plot-csv", "p.csv", "--quiet") == 0
        assert hashlib.sha256(Path("r.json").read_bytes()).hexdigest() == report
        assert hashlib.sha256(Path("p.csv").read_bytes()).hexdigest() == self.GOLDEN_CSV

    @pytest.mark.parametrize("bounds, message", [
        (("--year-min", 2005, "--year-max", 2001), "--year-min 2005 > --year-max 2001"),
        (("--year-max", 0), "--year-min 1900 > --year-max 0"),
    ], ids=["both", "default-min"])
    def test_inverted_year_range_exits_1(self, citation_files, capsys, bounds, message):
        nodes, edges = citation_files
        assert run("disrupt", "--nodes", nodes, "--edges", edges, *bounds, "--quiet") == 1
        assert f"error: empty year range: {message}" in capsys.readouterr().err

    def test_top_below_one_is_rejected_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert run("disrupt", "--nodes", missing, "--edges", missing, "--top", 0) == 1
        assert capsys.readouterr().err == "error: --top must be >= 1, got 0\n"

    @pytest.mark.parametrize("rows, message", [
        ("a\t2000\nb\t2001\na\t2002\n", "nodes.tsv:3: duplicate paper id 'a', first on line 1"),
        ("a\t2000\nb\t1800\n", "nodes.tsv:2: year 1800 of 'b' outside (1900, 2100)"),
        ("a\t2000\nb\t99999999999999999999\n",
         "nodes.tsv:2: year 99999999999999999999 of 'b' outside (1900, 2100)"),
        ("a\t2000\n\nb\t19x0\n", "nodes.tsv:3: not a year: '19x0'"),
    ], ids=["duplicate", "year", "huge-year", "not-a-year"])
    def test_paper_errors_name_the_nodes_line(self, tmp_path, capsys, rows, message):
        (tmp_path / "nodes.tsv").write_text(rows)
        (tmp_path / "edges.tsv").write_text("b\ta\n")
        assert run("disrupt", "--nodes", tmp_path / "nodes.tsv",
                   "--edges", tmp_path / "edges.tsv", "--quiet") == 1
        err = capsys.readouterr().err
        assert message in err
        assert "edges.tsv" not in err

    @pytest.mark.parametrize("nodes", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_no_papers(self, tmp_path, capsys, nodes):
        (tmp_path / "nodes.tsv").write_text(nodes)
        (tmp_path / "edges.tsv").write_text("")
        files = ("--nodes", tmp_path / "nodes.tsv", "--edges", tmp_path / "edges.tsv")
        assert run("disrupt", *files) == 0
        assert capsys.readouterr().out.startswith("0 papers;")
        (tmp_path / "edges.tsv").write_text("a\tb\n")
        assert run("disrupt", *files, "--quiet") == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'edges.tsv'}:1: edge references unknown paper id 'a'\n")

    @pytest.mark.parametrize("rows, message", [
        ("b\ta\n\nb\tp3\n", "edges.tsv:3: edge references unknown paper id 'p3'"),
        ("b\ta\na\ta\n", "edges.tsv:2: self-citation on 'a'"),
        ("a\ta\nb\tp3\n", "edges.tsv:2: edge references unknown paper id 'p3'"),
    ], ids=["unknown", "self", "unknown-first"])
    def test_edge_errors_name_the_edges_line(self, tmp_path, capsys, rows, message):
        (tmp_path / "nodes.tsv").write_text("a\t2000\nb\t2001\n")
        (tmp_path / "edges.tsv").write_text(rows)
        assert run("disrupt", "--nodes", tmp_path / "nodes.tsv",
                   "--edges", tmp_path / "edges.tsv", "--quiet") == 1
        assert capsys.readouterr().err == f"error: {tmp_path / message}\n"


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

    def test_plot_deeper_than_the_graph(self, hierarchy, tmp_path):
        # levels stop at the node count; the plot still has a row per depth
        plot = tmp_path / "levels.csv"
        assert run("taxonomy", "--edges", hierarchy, "--roots", "Mathematics",
                   "--depth", 20, "--plot-csv", plot, "--quiet") == 0
        lines = plot.read_text().splitlines()
        assert len(lines) == 22
        assert lines[3:] == [f"{k},3,3" for k in range(2, 21)]

    def test_preset_requires_membership(self, hierarchy, capsys):
        assert run("taxonomy", "--edges", hierarchy, "--preset", "wag_core") == 1
        err = capsys.readouterr().err
        assert "unknown category" in err

    def test_unknown_preset_is_rejected_before_reading(self, tmp_path, capsys):
        assert run("taxonomy", "--edges", tmp_path / "missing.tsv", "--preset", "nope") == 1
        assert capsys.readouterr().err == (
            "error: unknown preset 'nope'; have ['wag_broad', 'wag_core']\n")

    def test_unknown_root_message_is_not_requoted(self, hierarchy, capsys):
        assert run("taxonomy", "--edges", hierarchy, "--roots", "Nope") == 1
        assert capsys.readouterr().err == "error: unknown category: 'Nope'\n"

    @pytest.mark.parametrize("rows, line", [
        ("A\tRoot\tcategory\nx\tA\tarticle\nB\tx\tcategory\n", 3),
        # the clash is the third distinct triple, first on line 5 of the file
        ("A\tRoot\tcategory\n\nx\tA\tarticle\nA\tRoot\tcategory\n"
         "B\tx\tcategory\nB\tx\tcategory\n", 5),
    ], ids=["plain", "repeated"])
    def test_kind_clash_names_its_first_line(self, tmp_path, capsys, rows, line):
        (tmp_path / "cat.tsv").write_text(rows)
        assert run("taxonomy", "--edges", tmp_path / "cat.tsv", "--roots", "Root") == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cat.tsv'}:{line}: node 'x' used both as article and as category\n"
        )

    def test_exactly_one_root_source(self, hierarchy, capsys):
        assert run("taxonomy", "--edges", hierarchy) == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("roots", [",", " , ,"])
    def test_empty_root_list_exits_1(self, hierarchy, capsys, roots):
        assert run("taxonomy", "--edges", hierarchy, "--roots", roots, "--quiet") == 1
        assert capsys.readouterr().err == "error: --roots names no category\n"

    def test_unknown_kind_names_its_line(self, tmp_path, capsys):
        (tmp_path / "c.tsv").write_text("A\tRoot\tcategory\nX\tA\tpage\n")
        assert run("taxonomy", "--edges", tmp_path / "c.tsv", "--roots", "Root") == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c.tsv'}:2: unknown node kind 'page' (expected article/category)\n"
        )


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

    @pytest.mark.parametrize("percentiles", [",", " , "])
    def test_empty_percentile_list_exits_1(self, tmp_path, capsys, percentiles):
        for name in ("a", "b", "ctop"):
            (tmp_path / f"{name}.txt").write_text("p1\np2\n")
        assert run("intersect", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt",
                   "--ctop", tmp_path / "ctop.txt", "--percentiles", percentiles,
                   "--quiet") == 1
        assert capsys.readouterr().err == "error: --percentiles names no percentile\n"

    @pytest.mark.parametrize("edited", ["a", "b"])
    def test_inputs_sharing_a_file_name_both_verify(self, tmp_path, edited):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "ids.txt").write_text(f"{d}1\n{d}2\n")
        (tmp_path / "ctop.txt").write_text("a1\nb1\nc1\n")
        out = tmp_path / "ix.json"
        assert run("intersect", "--a", tmp_path / "a" / "ids.txt",
                   "--b", tmp_path / "b" / "ids.txt", "--ctop", tmp_path / "ctop.txt",
                   "--json", out, "--quiet") == 0
        doc = load_report(out)
        assert len(doc["inputs"]) == 3
        verify_report_inputs(doc)
        (tmp_path / edited / "ids.txt").write_text("x\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_report_inputs(doc)


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
        payload = load_report(out)["payload"]
        assert payload["exponent"] == pytest.approx(3.0, abs=0.2)
        assert payload["at_bound"] is False

    @pytest.mark.parametrize("samples, end", [
        ([1] * 998 + [2] * 2, 8.0),  # nearly all at kmin: steeper than the search range
        ([1] * 2 + [10**12] * 998, 1.05),  # nearly all far above it: flatter
    ])
    def test_powerlaw_at_search_bound_says_so(self, tmp_path, samples, end):
        (tmp_path / "deg.txt").write_text("\n".join(map(str, samples)) + "\n")
        out = tmp_path / "pl.json"
        rc = run("distfit", "--input", tmp_path / "deg.txt", "--family", "powerlaw",
                 "--kmin", 1, "--json", out, "--quiet")
        assert rc == 0
        payload = load_report(out)["payload"]
        assert payload["exponent"] == pytest.approx(end, abs=1e-6)
        assert payload["at_bound"] is True

    @pytest.mark.parametrize("kmin", [0, -3])
    def test_powerlaw_kmin_below_one_fails(self, tmp_path, capsys, kmin):
        (tmp_path / "deg.txt").write_text("\n".join(map(str, range(1, 201))) + "\n")
        rc = run("distfit", "--input", tmp_path / "deg.txt", "--family", "powerlaw",
                 "--kmin", kmin, "--quiet")
        assert rc == 1
        assert "kmin must be >= 1" in capsys.readouterr().err

    def test_lognormal_rejects_kmin(self, tmp_path, capsys):
        (tmp_path / "sizes.txt").write_text("\n".join(map(str, range(1, 201))) + "\n")
        rc = run("distfit", "--input", tmp_path / "sizes.txt", "--family", "lognormal",
                 "--kmin", 7, "--quiet")
        assert rc == 1
        assert "--kmin applies to --family powerlaw only" in capsys.readouterr().err


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
