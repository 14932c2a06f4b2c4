import json
import subprocess
import sys

import pytest

from rossby_resonance import cli
from rossby_resonance.cli import run
from rossby_resonance.partner_search import enumerate_lambda, stats_anisotropy
from rossby_resonance.verification import VerificationReport


class TestCheck:
    def test_resonant_pair(self, capsys):
        assert run(["check", "1", "11", "-8", "34"]) == 0
        assert capsys.readouterr().out == "resonant, residual 0/1\n"

    def test_non_resonant_pair(self, capsys):
        assert run(["check", "5", "0", "2", "3"]) == 0
        assert capsys.readouterr().out == "not resonant, residual -47/390\n"

    def test_simple_failure(self, capsys):
        assert run(["check", "2", "2", "1", "1"]) == 0
        assert capsys.readouterr().out == "not resonant, residual -3/4\n"

    def test_trivial_input_is_usage_error(self, capsys):
        assert run(["check", "5", "0", "0", "3"]) == 2
        assert "x = 0" in capsys.readouterr().err


class TestPartners:
    def test_stdout_lines(self, capsys):
        assert run(["partners", "1", "11"]) == 0
        assert capsys.readouterr().out == "-8 34\n9 -23\n"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert run(["partners", "1", "8", "--out", str(out)]) == 0
        assert out.read_text() == "-15 10\n16 -2\n"


class TestEnumerate:
    def test_writes_jsonl_and_stats(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert run(["enumerate", "--max-norm", "12", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_norm 12" in captured.err
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["max_norm"] == 12
        assert len(lines) == 9  # header + 8 triads

    def test_stdout_body_matches_file(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        run(["enumerate", "--max-norm", "12", "--out", str(out)])
        capsys.readouterr()
        assert run(["enumerate", "--max-norm", "12"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_resume_matches_uninterrupted(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(["enumerate", "--max-norm", "13", "--out", str(out_a),
                    "--cache", str(cache)]) == 0
        lines = cache.read_text().splitlines(True)
        cache.write_text("".join(lines[: len(lines) // 2]))
        assert run(["enumerate", "--max-norm", "13", "--out", str(out_b),
                    "--cache", str(cache)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_corrupt_cache_line_is_recomputed(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(["enumerate", "--max-norm", "12", "--out", str(out_a),
                    "--cache", str(cache)]) == 0
        lines = cache.read_text().splitlines(True)
        assert len(lines) == 111  # header + 110 quadrant sources
        lines[19] = '{"n":[2,5],"triads":[}\n'
        cache.write_text("".join(lines))
        capsys.readouterr()
        assert run(["enumerate", "--max-norm", "12", "--out", str(out_b),
                    "--cache", str(cache)]) == 0
        assert "cache hits 109)" in capsys.readouterr().err
        assert out_a.read_bytes() == out_b.read_bytes()
        assert run(["enumerate", "--max-norm", "12", "--cache", str(cache)]) == 0
        assert "cache hits 110)" in capsys.readouterr().err


class TestClusters:
    def test_in_file_equals_in_memory(self, tmp_path, capsys):
        triads = tmp_path / "t.jsonl"
        from_file = tmp_path / "file.json"
        direct = tmp_path / "direct.json"
        run(["enumerate", "--max-norm", "12", "--out", str(triads)])
        assert run(["clusters", "--in", str(triads), "--out", str(from_file)]) == 0
        assert run(["clusters", "--max-norm", "12", "--out", str(direct)]) == 0
        assert from_file.read_bytes() == direct.read_bytes()

    def test_document_contents(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run(["clusters", "--max-norm", "12", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["max_norm"] == 12
        assert len(doc["clusters"]) == 4
        assert all("scaling_flag" in c for c in doc["clusters"])

    def test_requires_exactly_one_source(self, capsys):
        assert run(["clusters"]) == 2
        assert run(["clusters", "--in", "x", "--max-norm", "5"]) == 2

    def test_missing_input_file(self, capsys):
        assert run(["clusters", "--in", "/nonexistent/path.jsonl"]) == 2

    def test_cache_file_is_not_a_result(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        run(["enumerate", "--max-norm", "12", "--cache", str(cache)])
        capsys.readouterr()
        assert run(["clusters", "--in", str(cache)]) == 2
        assert run(["stats", "--in", str(cache)]) == 2
        assert "resume cache" in capsys.readouterr().err


RESULT_HEADER = '{"schema":1,"max_norm":5,"quadrant":true}\n'
CACHE_HEADER = '{"schema":2,"max_norm":5,"quadrant":true,"kind":"cache"}\n'
MALFORMED_INPUTS = [
    (["clusters", "--in"], RESULT_HEADER + "5\n", "line 2"),
    (["stats", "--in"], RESULT_HEADER + "5\n", "line 2"),
    (["clusters", "--in"], RESULT_HEADER + '{"triad":[[1,2]]}\n', "line 2"),
    (["stats", "--in"], RESULT_HEADER + '{"triad":[[1,2]]}\n', "line 2"),
    (["clusters", "--in"], "5\n", "line 1"),
    (["stats", "--in"], "5\n", "line 1"),
    (["enumerate", "--max-norm", "5", "--cache"], CACHE_HEADER + '{"done_upto":[1]}\n', "line 2"),
    (["enumerate", "--max-norm", "5", "--cache"], CACHE_HEADER + '{"n":[1,0],"triads":[[[1,2]]]}\n', "line 2"),
    # sources outside the box's quadrant
    (["enumerate", "--max-norm", "5", "--cache"], CACHE_HEADER + '{"n":[0,0],"triads":[]}\n', "line 2"),
    (["enumerate", "--max-norm", "5", "--cache"],
     CACHE_HEADER + '{"n":[1,0],"triads":[]}\n{"n":[4,4],"triads":[]}\n', "line 3"),
    # the earlier cache format: per-triad records and done_upto markers
    (["enumerate", "--max-norm", "5", "--cache"],
     '{"schema":1,"max_norm":5,"quadrant":true,"kind":"cache"}\n{"done_upto":[1,0]}\n',
     "written for different parameters"),
    # result headers whose max_norm is not an integer >= 1
    (["clusters", "--in"], '{"schema":1,"max_norm":"40","quadrant":true}\n', "max_norm"),
    (["stats", "--in"], '{"schema":1,"max_norm":-3,"quadrant":true}\n', "max_norm"),
    (["clusters", "--in"], '{"schema":1,"max_norm":2.5,"quadrant":true}\n', "max_norm"),
    (["clusters", "--in"], '{"schema":1,"max_norm":true,"quadrant":true}\n', "max_norm"),
]


@pytest.mark.parametrize(
    "argv, text, where",
    MALFORMED_INPUTS,
    ids=["clusters-int", "stats-int", "clusters-short-triad", "stats-short-triad",
         "clusters-only-int", "stats-only-int", "cache-marker", "cache-short-triad",
         "cache-origin", "cache-outside-box", "cache-schema-1",
         "header-max-norm-str", "header-max-norm-negative", "header-max-norm-float",
         "header-max-norm-bool"],
)
def test_malformed_input_is_a_usage_error(argv, text, where, tmp_path, capsys):
    path = tmp_path / "input.jsonl"
    path.write_text(text)
    assert run([*argv, str(path)]) == 2
    assert where in capsys.readouterr().err
    assert path.read_text() == text


class TestVerifySubcommands:
    def test_lemma_summary(self, capsys):
        assert run(["verify-lemma", "--max", "50"]) == 0
        assert capsys.readouterr().out == "0 counterexamples / 1275 cases\n"

    def test_axis_summary_and_report(self, tmp_path, capsys):
        out = tmp_path / "axis.json"
        assert run(["verify-axis", "--max", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("0 counterexamples / ")
        doc = json.loads(out.read_text())
        assert doc["claim"] == "axis-exclusion"
        assert doc["counterexamples"] == []

    def test_identity_echoes_seed(self, capsys):
        assert run(["verify-identity", "--samples", "10", "--bound", "50",
                    "--seed", "9"]) == 0
        assert "(seed 9)" in capsys.readouterr().out

    def test_counterexample_exit_code(self, monkeypatch, capsys):
        fake = VerificationReport(
            claim="axis-exclusion",
            bounds={"n1_max": 5},
            checked=10,
            counterexamples=[(1, 2, 3)],
            wall_time_ms=0.1,
        )
        monkeypatch.setattr(cli, "verify_axis_theorem", lambda n1_max: fake)
        assert run(["verify-axis", "--max", "5"]) == 1
        assert capsys.readouterr().out == "1 counterexamples / 10 cases\n"


class TestFamily:
    def test_jsonl_output(self, capsys):
        assert run(["family", "--m-max", "2", "--l-max", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0]) == {"schema": 1, "m_max": 2, "l_max": 2}
        records = [json.loads(line) for line in lines[1:]]
        assert [rec["source_n"] for rec in records] == [[1, 8], [16, 2]]
        assert records[0]["triad"] == [[-16, 2], [1, 8], [15, -10]]


class TestStats:
    def test_csv_shape_and_totals(self, capsys):
        assert run(["stats", "--max-norm", "12", "--bins", "8"]) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0] == "bin_center_radians,count"
        counts = [int(r.split(",")[1]) for r in rows[1:]]
        assert len(counts) == 8
        assert sum(counts) == 12
        assert "axis_count 0" in captured.err

    def test_totals_independent_of_bins(self, capsys):
        run(["stats", "--max-norm", "12", "--bins", "8"])
        eight = sum(
            int(r.split(",")[1])
            for r in capsys.readouterr().out.splitlines()[1:]
        )
        run(["stats", "--max-norm", "12", "--bins", "16"])
        sixteen = sum(
            int(r.split(",")[1])
            for r in capsys.readouterr().out.splitlines()[1:]
        )
        assert eight == sixteen

    def test_reads_jsonl_input(self, tmp_path, capsys):
        triads = tmp_path / "t.jsonl"
        run(["enumerate", "--max-norm", "12", "--out", str(triads)])
        capsys.readouterr()
        assert run(["stats", "--in", str(triads), "--bins", "8"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert sum(int(r.split(",")[1]) for r in rows[1:]) == 12

    @pytest.mark.parametrize("bins", ["7", "2", "3"])
    def test_bad_bins(self, bins, capsys):
        assert run(["stats", "--max-norm", "5", "--bins", bins]) == 2


class TestStatsAnisotropy:
    def test_empty_report(self):
        hist = stats_anisotropy(enumerate_lambda(3), 8)
        assert hist.counts == [0] * 8
        assert hist.axis_count == 0

    def test_axis_count_exact(self, report12):
        hist = stats_anisotropy(report12, 8)
        assert hist.axis_count == 0
        assert sum(hist.counts) == len(report12.lambda_members)

    def test_bin_validation(self, report12):
        for bins in (3, 5, 2, 0):
            with pytest.raises(ValueError):
                stats_anisotropy(report12, bins)


class TestConfig:
    def test_env_config_supplies_defaults(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("bins = 4\nseed = 3  # comment\n")
        monkeypatch.setenv("ROSSBY_RESONANCE_CONFIG", str(cfg))
        assert run(["stats", "--max-norm", "5", ]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 + 4

    def test_flags_override_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("bins=4\n")
        monkeypatch.setenv("ROSSBY_RESONANCE_CONFIG", str(cfg))
        assert run(["stats", "--max-norm", "5", "--bins", "8"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 8

    def test_unknown_key_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("radius = 4\n")
        monkeypatch.setenv("ROSSBY_RESONANCE_CONFIG", str(cfg))
        assert run(["stats", "--max-norm", "5"]) == 2

    def test_missing_config_file_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("ROSSBY_RESONANCE_CONFIG", "/nonexistent/cfg")
        assert run(["check", "1", "11", "-8", "34"]) == 2


EXIT_CODE_MATRIX = [
    (["check", "1", "11", "-8", "34"], 0),
    (["check", "2", "2", "1", "1"], 0),
    (["check", "1", "1", "1", "1"], 2),  # n1 - x = 0
    (["partners", "5", "0"], 0),
    (["partners", "0", "5"], 2),
    (["enumerate", "--max-norm", "4"], 0),
    (["enumerate", "--max-norm", "0"], 2),
    (["enumerate", "--max-norm", "4", "--jobs", "0"], 2),
    (["enumerate"], 2),
    (["clusters", "--max-norm", "4"], 0),
    (["verify-axis", "--max", "3"], 0),
    (["verify-axis", "--max", "-1"], 2),
    (["verify-lemma", "--max", "10"], 0),
    (["verify-lemma"], 2),
    (["family", "--m-max", "1", "--l-max", "1"], 0),
    (["family", "--m-max", "1"], 2),
    (["stats", "--max-norm", "4", "--bins", "4"], 0),
    (["stats", "--max-norm", "4", "--bins", "5"], 2),
    (["no-such-command"], 2),
    (["enumerate", "--max-norm", "4", "--seed", "1"], 2),  # seed only on randomized subcommands
    ([], 2),
    (["--help"], 0),
]


@pytest.mark.parametrize("argv, expected", EXIT_CODE_MATRIX)
def test_exit_code_contract(argv, expected, capsys):
    assert run(argv) == expected


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rossby_resonance", "check", "1", "11", "-8", "34"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "resonant, residual 0/1\n"


def test_package_import_leaves_numpy_unloaded():
    # Importing the package must not load numpy, and with numpy blocked
    # (a None entry in sys.modules makes any import of it fail) verify-axis
    # still runs.
    script = (
        "import sys, rossby_resonance; print('numpy' in sys.modules)\n"
        "sys.modules['numpy'] = None\n"
        "from rossby_resonance import cli\n"
        "print(cli.run(['verify-axis', '--max', '5']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1] == "0 counterexamples / 573 cases"
    assert lines[2] == "0"


def test_package_import_leaves_multiprocessing_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rossby_resonance; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
