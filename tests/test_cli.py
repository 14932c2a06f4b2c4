import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rossby_resonance
from rossby_resonance import cli, partner_search, verification
from rossby_resonance.cli import run
from rossby_resonance.partner_search import enumerate_lambda, histogram_to_csv, stats_anisotropy
from rossby_resonance.verification import VerificationReport


def _no_work(*args, **kwargs):
    pytest.fail("the computation ran before the arguments were checked")


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

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_out_naming_the_cache_keeps_the_cache(self, spelling, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["enumerate", "--max-norm", "20", "--cache", "P"]) == 0
        data = Path("P").read_bytes()
        Path("L").symlink_to("P")
        out = {"same": "P", "dot": "./P", "symlink": "L"}[spelling]
        monkeypatch.setattr(partner_search, "enumerate_lambda", _no_work)
        capsys.readouterr()
        assert run(["enumerate", "--max-norm", "20", "--cache", "P", "--out", out]) == 2
        assert "--out and --cache name the same file" in capsys.readouterr().err
        assert Path("P").read_bytes() == data

    @pytest.mark.parametrize("out", ["P", "./P"])
    def test_out_naming_an_absent_cache_leaves_no_file(self, out, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(partner_search, "enumerate_lambda", _no_work)
        assert run(["enumerate", "--max-norm", "20", "--cache", "P", "--out", out]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_leaves_no_new_out_file(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(partner_search, "enumerate_lambda", interrupted)
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        old.write_text("earlier result\n")
        with pytest.raises(KeyboardInterrupt):
            run(["enumerate", "--max-norm", "150", "--out", str(new)])
        with pytest.raises(KeyboardInterrupt):
            run(["enumerate", "--max-norm", "150", "--out", str(old)])
        assert not new.exists()
        assert old.read_text() == "earlier result\n"


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


    def test_failed_run_keeps_an_existing_out_file(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        out.write_text("earlier result\n")
        assert run(["clusters", "--in", str(tmp_path / "missing.jsonl"), "--out", str(out)]) == 2
        assert out.read_text() == "earlier result\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-norm", "45"],
    ["verify-axis", "--max", "120"],
], ids=["enumerate", "verify-axis"])
def test_unwritable_out_fails_before_any_work(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(partner_search, "enumerate_lambda", _no_work)
    monkeypatch.setattr(verification, "verify_axis_theorem", _no_work)
    (tmp_path / "a-dir").mkdir()
    for out in (tmp_path / "no-such-dir" / "x", tmp_path / "a-dir"):
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out) in captured.err


FAILING_COMMANDS = [
    ["partners", "0", "5"],
    ["verify-identity", "--bound", "1"],
    ["clusters", "--in", "/nonexistent/path.jsonl"],
]


@pytest.mark.parametrize("argv", FAILING_COMMANDS, ids=["partners", "verify-identity", "clusters"])
def test_failed_run_leaves_no_new_out_file(argv, tmp_path, capsys):
    out = tmp_path / "f"
    assert run(argv + ["--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", FAILING_COMMANDS, ids=["partners", "verify-identity", "clusters"])
def test_failed_run_leaves_an_existing_out_file_as_it_was(argv, tmp_path, capsys):
    out = tmp_path / "f"
    out.write_text("earlier result\n")
    assert run(argv + ["--out", str(out)]) == 2
    assert out.read_text() == "earlier result\n"


def test_failed_run_through_a_dangling_symlink_leaves_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("L").symlink_to("P")
    assert run(["clusters", "--in", "missing.jsonl", "--out", "L"]) == 2
    assert not Path("P").exists()
    assert Path("L").is_symlink()
    assert run(["partners", "1", "11", "--out", "L"]) == 0
    assert Path("P").read_text() == "-8 34\n9 -23\n"
    assert Path("L").is_symlink()


def test_counterexample_run_still_writes_its_report(tmp_path, monkeypatch, capsys):
    fake = VerificationReport(
        claim="axis-exclusion",
        bounds={"n1_max": 5},
        checked=10,
        counterexamples=[(1, 2, 3)],
        wall_time_ms=0.1,
    )
    monkeypatch.setattr(verification, "verify_axis_theorem", lambda n1_max: fake)
    out = tmp_path / "axis.json"
    assert run(["verify-axis", "--max", "5", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["counterexamples"] == [[1, 2, 3]]


RESULT_HEADER = '{"schema":1,"max_norm":5,"quadrant":true}\n'
CACHE_HEADER = '{"schema":2,"max_norm":5,"quadrant":true,"kind":"cache"}\n'
RESULT_HEADER_20 = '{"schema":1,"max_norm":20,"quadrant":true}\n'
GOLDEN_RECORD = '{"triad":[[-9,23],[1,11],[8,-34]],"source_n":[1,11],"norms2":[610,122,1220]}\n'
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
    # a result file, or a first line that is not an object, is not a resume cache
    (["enumerate", "--max-norm", "5", "--cache"], RESULT_HEADER + GOLDEN_RECORD,
     'input.jsonl is not a resume cache: its header has no "kind":"cache"'),
    (["enumerate", "--max-norm", "5", "--cache"], "[5]\n",
     'input.jsonl is not a resume cache: its header has no "kind":"cache"'),
    # result headers whose max_norm is not an integer >= 1
    (["clusters", "--in"], '{"schema":1,"max_norm":"40","quadrant":true}\n', "max_norm"),
    (["stats", "--in"], '{"schema":1,"max_norm":-3,"quadrant":true}\n', "max_norm"),
    (["clusters", "--in"], '{"schema":1,"max_norm":2.5,"quadrant":true}\n', "max_norm"),
    (["clusters", "--in"], '{"schema":1,"max_norm":true,"quadrant":true}\n', "max_norm"),
    # wavenumber components that are not ints: a JSON true or a float
    (["clusters", "--in"], RESULT_HEADER + '{"triad":[[-9,23],[true,11],[8,-34]]}\n', "line 2"),
    (["enumerate", "--max-norm", "12", "--cache"],
     '{"schema":2,"max_norm":12,"quadrant":true,"kind":"cache"}\n'
     '{"n":[true,11],"triads":[[[-9,23],[true,11],[8,-34]]]}\n', "line 2"),
    (["enumerate", "--max-norm", "5", "--cache"], CACHE_HEADER + '{"n":[1.0,0],"triads":[]}\n', "line 2"),
    # a triad that holds neither the source nor its negation
    (["enumerate", "--max-norm", "5", "--cache"],
     CACHE_HEADER + '{"n":[1,1],"triads":[[[-16,2],[1,8],[15,-10]]]}\n', "line 2"),
    # a triad with no member inside the header's box
    (["clusters", "--in"], '{"schema":1,"max_norm":5,"quadrant":true}\n'
     '{"triad":[[-16,2],[1,8],[15,-10]],"source_n":[1,8],"norms2":[260,65,325]}\n',
     "input.jsonl: triad [[-16, 2], [1, 8], [15, -10]] has no member inside the box"),
    # a result header of another schema
    (["clusters", "--in"], '{"schema":99,"max_norm":20,"quadrant":true}\n'
     '{"triad":[[-9,23],[1,11],[8,-34]],"source_n":[1,11],"norms2":[610,122,1220]}\n',
     "line 1: unknown schema 99"),
    # derived fields that do not match the triad
    (["stats", "--in"], '{"schema":1,"max_norm":20,"quadrant":true}\n'
     '{"triad":[[-9,23],[1,11],[8,-34]],"source_n":[5,5],"norms2":[1,2,3]}\n',
     "line 2: not a triad record: norms2 [1, 2, 3]"),
    # a result file is one header line followed by triad records and nothing else
    (["clusters", "--in"], RESULT_HEADER_20 + GOLDEN_RECORD + CACHE_HEADER
     + '{"n":[1,0],"triads":[]}\n', "line 3: not a triad record"),
    (["stats", "--in"], RESULT_HEADER_20 + '{"hello":1}\n' + GOLDEN_RECORD,
     "line 2: not a triad record"),
    (["clusters", "--in"], RESULT_HEADER_20 + GOLDEN_RECORD + RESULT_HEADER_20,
     "line 3: not a triad record"),
    (["stats", "--in"], "", "no result header"),
    # triads of two or four members, a member of three components, a null
    # source: the message quotes the input and names no function
    (["clusters", "--in"], RESULT_HEADER_20 + '{"triad":[[-9,23],[8,-34]]}\n',
     "line 2: not a triad record: a triad must list exactly three members, got [[-9, 23], [8, -34]]"),
    (["enumerate", "--max-norm", "5", "--cache"],
     CACHE_HEADER + '{"n":[1,0],"triads":[[[-9,23],[8,-34]]]}\n',
     "line 2: not a finished-source record: a triad must list exactly three members"),
    (["clusters", "--in"], RESULT_HEADER_20 + '{"triad":[[-9,23],[1,11],[8,-34],[1,11]]}\n',
     "line 2: not a triad record: a triad must list exactly three members"),
    (["enumerate", "--max-norm", "5", "--cache"],
     CACHE_HEADER + '{"n":[1,0],"triads":[[[-9,23],[1,11],[8,-34],[1,11]]]}\n',
     "line 2: not a finished-source record: a triad must list exactly three members"),
    (["clusters", "--in"], RESULT_HEADER_20 + '{"triad":[[-9,23,0],[1,11],[8,-34]]}\n',
     "line 2: not a triad record: a wavenumber must be two integers [n1, n2], got [-9, 23, 0]"),
    (["enumerate", "--max-norm", "5", "--cache"],
     CACHE_HEADER + '{"n":[1,0],"triads":[[[-9,23,0],[1,11],[8,-34]]]}\n',
     "line 2: not a finished-source record: a wavenumber must be two integers [n1, n2], got [-9, 23, 0]"),
    (["clusters", "--in"], RESULT_HEADER_20 + '{"triad":[[-9,23],[1,11],[8,-34]],"source_n":null}\n',
     "line 2: not a triad record: a wavenumber must be two integers [n1, n2], got null"),
    (["enumerate", "--max-norm", "5", "--cache"], CACHE_HEADER + '{"n":null,"triads":[]}\n',
     "line 2: not a finished-source record: a wavenumber must be two integers [n1, n2], got null"),
    (["enumerate", "--max-norm", "5", "--cache"], CACHE_HEADER + '{"n":[1,0],"triads":null}\n',
     'line 2: not a finished-source record: expected {"n": [n1, n2], "triads": [...]}'),
    # bytes that are not UTF-8: the message names the file
    (["enumerate", "--max-norm", "5", "--cache"], b"\x89PNG\r\n\x1a\n",
     "input.jsonl has a corrupt header line"),
    (["clusters", "--in"], b"\x89PNG\r\n\x1a\n", "input.jsonl"),
    (["stats", "--in"], b"\x89PNG\r\n\x1a\n", "input.jsonl"),
]


@pytest.mark.parametrize(
    "argv, text, where",
    MALFORMED_INPUTS,
    ids=["clusters-int", "stats-int", "clusters-short-triad", "stats-short-triad",
         "clusters-only-int", "stats-only-int", "cache-marker", "cache-short-triad",
         "cache-origin", "cache-outside-box", "cache-schema-1", "cache-given-result", "cache-given-list",
         "header-max-norm-str", "header-max-norm-negative", "header-max-norm-float",
         "header-max-norm-bool", "clusters-bool-component", "cache-bool-component",
         "cache-float-component", "cache-foreign-triad", "clusters-triad-outside-box",
         "clusters-schema-99", "stats-wrong-derived-fields",
         "clusters-result-then-cache", "stats-stray-object", "clusters-second-header",
         "stats-empty",
         "clusters-two-members", "cache-two-members", "clusters-four-members",
         "cache-four-members", "clusters-three-components", "cache-three-components",
         "clusters-null-source", "cache-null-source", "cache-null-triads",
         "cache-binary", "clusters-binary", "stats-binary"],
)
def test_malformed_input_is_a_usage_error(argv, text, where, tmp_path, capsys):
    path = tmp_path / "input.jsonl"
    data = text if isinstance(text, bytes) else text.encode()
    path.write_bytes(data)
    assert run([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert where in err
    # the message describes the input, not the code that read it
    assert "()" not in err and "__" not in err
    assert path.read_bytes() == data


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
        monkeypatch.setattr(verification, "verify_axis_theorem", lambda n1_max: fake)
        assert run(["verify-axis", "--max", "5"]) == 1
        assert capsys.readouterr().out == "1 counterexamples / 10 cases\n"

    def test_wrong_axis_quartic_exits_1_with_its_columns(self, wrong_axis_quartic,
                                                          tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify-identity", "--samples", "200", "--bound", "100", "--seed", "3",
                    "--out", str(out)]) == 1
        expected = [[n1, x] for n1, x in wrong_axis_quartic if x % 7 == 0]
        assert expected
        assert json.loads(out.read_text())["counterexamples"] == expected
        assert capsys.readouterr().out == f"{len(expected)} counterexamples / 200 cases (seed 3)\n"


class TestFamily:
    def test_jsonl_output(self, capsys):
        assert run(["family", "--m-max", "2", "--l-max", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0]) == {"schema": 1, "max_norm": 17, "m_max": 2, "l_max": 2}
        records = [json.loads(line) for line in lines[1:]]
        assert [rec["source_n"] for rec in records] == [[1, 8], [16, 2]]
        assert records[0]["triad"] == [[-16, 2], [1, 8], [15, -10]]

    @pytest.mark.parametrize("size, max_norm", [("3", 85), ("1", 1)], ids=["3x3", "empty"])
    def test_family_file_reads_as_a_result(self, size, max_norm, tmp_path, capsys):
        fam = tmp_path / "fam.jsonl"
        assert run(["family", "--m-max", size, "--l-max", size, "--out", str(fam)]) == 0
        assert json.loads(fam.read_text().splitlines()[0])["max_norm"] == max_norm
        assert run(["clusters", "--in", str(fam)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_norm"] == max_norm
        assert bool(doc["clusters"]) == (size != "1")
        assert run(["stats", "--in", str(fam)]) == 0
        assert capsys.readouterr().out.startswith("bin_center_radians,count\n")


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
    def test_bad_bins(self, bins, capsys, tmp_path, monkeypatch):
        # rejected by the parser: no enumeration, no file read, no --out file
        monkeypatch.setattr(partner_search, "enumerate_lambda", _no_work)
        monkeypatch.setattr(partner_search, "read_report", _no_work)
        out = tmp_path / "hist.csv"
        assert run(["stats", "--max-norm", "400", "--bins", bins, "--out", str(out)]) == 2
        assert "--bins" in capsys.readouterr().err
        assert not out.exists()
        assert run(["stats", "--in", str(tmp_path / "r.jsonl"), "--bins", bins]) == 2


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

    def test_box35_csv_is_pinned(self, report35):
        csv = histogram_to_csv(stats_anisotropy(report35, 16))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "460e4daa912151c77f0021ae3b309b69ddc02ff2dffc48c29545ae343dd00dd2")


def test_settings_come_from_the_command_line_only(tmp_path, monkeypatch, capsys):
    # flags are the only settings: no environment variable changes an output
    cfg = tmp_path / "cfg"
    cfg.write_text("bins = 4\nseed = 3\n")
    commands = [["check", "1", "11", "-8", "34"], ["stats", "--max-norm", "5"],
                ["verify-identity", "--samples", "10"]]

    def outputs():
        return [(run(argv), capsys.readouterr().out) for argv in commands]

    monkeypatch.delenv("ROSSBY_RESONANCE_CONFIG", raising=False)
    expected = outputs()
    assert [code for code, _ in expected] == [0, 0, 0]
    assert len(expected[1][1].splitlines()) == 1 + 16
    assert expected[2][1].endswith("(seed 0)\n")
    for value in ("/nonexistent/cfg", str(cfg)):
        monkeypatch.setenv("ROSSBY_RESONANCE_CONFIG", value)
        assert outputs() == expected
    parse = cli._build_parser().parse_args
    for command in ("enumerate", "clusters", "stats"):
        assert parse([command, "--max-norm", "5"]).jobs == 1
    assert parse(["stats", "--max-norm", "5"]).bins == 16
    assert parse(["verify-identity"]).seed == 0


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


def test_non_integer_argument_names_no_internal_function(capsys):
    assert run(["enumerate", "--max-norm", "abc"]) == 2
    err = capsys.readouterr().err
    assert "--max-norm: not an integer: 'abc'" in err
    assert "_positive_int" not in err


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
    assert lines[1] == "0 counterexamples / 5 cases"
    assert lines[2] == "0"


def test_package_import_leaves_multiprocessing_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rossby_resonance; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # The result types are NamedTuples, so start-up of every command skips
    # dataclasses and the inspect, ast and dis modules it pulls in. -S keeps
    # site out of the check; PYTHONPATH points at this checkout's package.
    src = str(Path(rossby_resonance.__file__).resolve().parent.parent)
    script = "import sys, rossby_resonance.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_small_parallel_enumerate_neither_imports_multiprocessing_nor_forks():
    # box 20 is below POOL_MIN_QUARTICS, so --jobs 2 runs in one process
    src = str(Path(rossby_resonance.__file__).resolve().parent.parent)
    script = (
        "import os, sys; from rossby_resonance.cli import run; "
        "code = run(['enumerate', '--max-norm', '20', '--jobs', '2', '--out', os.devnull]); "
        "print(code, 'multiprocessing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"
    assert ", jobs 2, " in proc.stderr
