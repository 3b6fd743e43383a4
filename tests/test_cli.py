import json
import os
import subprocess
import sys

import pytest

from modfault.cli import main
from modfault.reporting import render

from conftest import CORPUS_FILES

UNPROTECTED = str(CORPUS_FILES["unprotected"])
FIXED = str(CORPUS_FILES["vigilant-fixed"])


def test_analyze_exit_codes(capsys):
    assert main(["analyze", FIXED, "--faults", "1", "--jobs", "1"]) == 0
    assert main(["analyze", UNPROTECTED, "--jobs", "1"]) == 2


def test_analyze_writes_reports(tmp_path, capsys):
    code = main(["analyze", UNPROTECTED, "--jobs", "1",
                 "--format", "text,json,html", "--out", str(tmp_path)])
    assert code == 2
    json_file = tmp_path / "unprotected.report.json"
    html_file = tmp_path / "unprotected.report.html"
    assert json_file.exists() and html_file.exists()
    data = json.loads(json_file.read_text())
    assert data["summary"]["attacks"] > 0
    out = capsys.readouterr().out
    assert "injections:" in out


def test_sites_deterministic(capsys):
    assert main(["sites", UNPROTECTED]) == 0
    first = capsys.readouterr().out
    assert main(["sites", UNPROTECTED]) == 0
    assert capsys.readouterr().out == first
    assert "permanent fault on Sp" in first


def test_oracle_command(capsys):
    assert main(["oracle", UNPROTECTED, "--trials", "50", "--seed", "2",
                 "--prop1"]) == 0
    out = capsys.readouterr().out
    assert "soundness: pass" in out
    assert "gcd factor recovery: pass" in out


def test_oracle_power_tower_maps_to_exit_1(tmp_path, capsys):
    src = tmp_path / "tower.fj"
    src.write_text("noprop a ; x := a^(a^a) ; return x ; _ != @\n")
    assert main(["oracle", str(src), "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert "error: a power of" in captured.err
    assert "bits outside any modulus" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_repeated_kinds_are_counted_once(tmp_path, capsys):
    assert main(["analyze", FIXED, "--faults", "2", "--kinds", "zeroing,zeroing",
                 "--protect-conditions", "--max-vectors", "20000", "--jobs", "1"]) == 2
    assert "13861 injections: 13657 detected, 197 harmless, 7 attacks" in capsys.readouterr().out
    assert main(["analyze", UNPROTECTED, "--kinds", "zeroing,zeroing", "--jobs", "1",
                 "--format", "json", "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "unprotected.report.json").read_text())
    assert report["config"]["kinds"] == ["zeroing"]


def test_repeated_formats_render_once(tmp_path, monkeypatch, capsys):
    rendered = []

    def recording_render(report, fmt):
        rendered.append(fmt)
        return render(report, fmt)

    monkeypatch.setattr("modfault.cli.render", recording_render)
    assert main(["analyze", UNPROTECTED, "--jobs", "1", "--format",
                 "json,text,json, text", "--out", str(tmp_path)]) == 2
    assert rendered == ["json", "text"]
    out = capsys.readouterr().out
    assert out.count("injections:") == 1
    assert out.count("wrote ") == 1


def test_parse_roundtrip_command(capsys):
    assert main(["parse", UNPROTECTED]) == 0
    out = capsys.readouterr().out
    assert "return S ;" in out


def test_parse_prints_nested_protected_conditions_back(tmp_path, capsys):
    src = tmp_path / "nested.fj"
    src.write_text("noprop x, y, a, b ;\nreturn x ;\n\n{{x = y} /\\ {a = b}}\n")
    assert main(["parse", str(src)]) == 0
    assert capsys.readouterr().out == src.read_text()


def test_unreadable_file(capsys):
    assert main(["parse", "no-such-file.fj"]) == 1


def test_syntax_error_maps_to_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.fj"
    bad.write_text("noprop M return M ;")
    assert main(["analyze", str(bad)]) == 1


def test_non_utf8_file_maps_to_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.fj"
    bad.write_bytes(b"noprop M ;\xff return M ; _ != @")
    assert main(["parse", str(bad)]) == 1
    assert "not UTF-8 text (byte 10)" in capsys.readouterr().err


def test_unknown_flag_maps_to_exit_1(capsys):
    assert main(["analyze", UNPROTECTED, "--bogus"]) == 1


def test_bad_kind_maps_to_exit_1(capsys):
    assert main(["analyze", UNPROTECTED, "--kinds", "sparkles"]) == 1
    assert capsys.readouterr().err == \
        "error: unknown fault kind 'sparkles'; choose from zeroing, randomizing\n"


def test_zero_faults_maps_to_exit_1(capsys):
    assert main(["analyze", UNPROTECTED, "--faults", "0"]) == 1
    assert "max_faults must be >= 1" in capsys.readouterr().err


def test_faults_above_the_site_count_end_at_the_site_count(tmp_path, capsys):
    # a vector holds distinct sites, so no order above the site count adds a
    # vector: a huge --faults hits the cap at once, or runs the vectors there
    # are, and the report still echoes the flag
    assert main(["analyze", UNPROTECTED, "--faults", "100000000", "--jobs", "1"]) == 1
    assert "exceed the cap" in capsys.readouterr().err
    src = tmp_path / "one.fj"
    src.write_text("noprop x ;\nreturn x ;\n_ != @\n")
    assert main(["analyze", str(src), "--faults", "1000000000", "--kinds", "zeroing",
                 "--jobs", "1", "--format", "text,json", "--out", str(tmp_path)]) == 2
    assert "3 injections: 0 detected, 0 harmless, 3 attacks" in capsys.readouterr().out
    report = json.loads((tmp_path / "one.report.json").read_text())
    assert report["config"]["max_faults"] == 1000000000


def test_bad_format_is_rejected_before_analysis(monkeypatch, capsys):
    def no_analysis(*args, **kwargs):
        raise AssertionError("analyze ran before the format was checked")

    monkeypatch.setattr("modfault.cli.analyze", no_analysis)
    assert main(["analyze", FIXED, "--jobs", "1", "--format", "text,jsn"]) == 1
    assert "unknown format 'jsn'" in capsys.readouterr().err


def test_unwritable_out_is_rejected_before_analysis(tmp_path, monkeypatch, capsys):
    def no_analysis(*args, **kwargs):
        raise AssertionError("analyze ran before --out was created")

    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr("modfault.cli.analyze", no_analysis)
    assert main(["analyze", FIXED, "--jobs", "1", "--format", "text,json",
                 "--out", str(taken)]) == 1
    assert f"error: cannot write {taken}: File exists" in capsys.readouterr().err


def test_unwritable_report_maps_to_exit_1(tmp_path, capsys):
    src = tmp_path / "one.fj"
    src.write_text("noprop x ;\nreturn x ;\n_ != @\n")
    (tmp_path / "one.report.json").mkdir()
    assert main(["analyze", str(src), "--jobs", "1", "--format", "json",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {tmp_path / 'one.report.json'}: Is a directory" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_maps_to_exit_1(capsys, jobs):
    assert main(["analyze", UNPROTECTED, "--jobs", jobs]) == 1
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err


def _no_parse(*args, **kwargs):
    raise AssertionError("the program was parsed before the options were checked")


@pytest.mark.parametrize("formats", [",", " , ", ""])
def test_empty_format_is_rejected_before_parsing(monkeypatch, capsys, formats):
    monkeypatch.setattr("modfault.cli.parse", _no_parse)
    assert main(["analyze", FIXED, "--jobs", "1", "--format", formats]) == 1
    assert "error: no output format given" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_vectors_below_one_is_rejected_before_parsing(monkeypatch, capsys, cap):
    monkeypatch.setattr("modfault.cli.parse", _no_parse)
    assert main(["analyze", FIXED, "--jobs", "1", "--max-vectors", cap]) == 1
    assert f"error: --max-vectors must be >= 1, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze", FIXED, "--jobs", "1", "--faults", "0"],
     "error: max_faults must be >= 1"),
    (["analyze", FIXED, "--jobs", "1", "--kinds", "sparkles"],
     "error: unknown fault kind 'sparkles'; choose from zeroing, randomizing"),
    (["analyze", FIXED, "--jobs", "1", "--transient", "maybe"],
     "error: --transient: expected true or false, got 'maybe'"),
    (["oracle", FIXED, "--trials", "0"], "error: --trials must be >= 1"),
], ids=["faults", "kinds", "transient", "trials"])
def test_bad_model_options_are_rejected_before_parsing(monkeypatch, capsys, argv, message):
    monkeypatch.setattr("modfault.cli.parse", _no_parse)
    assert main(argv) == 1
    assert capsys.readouterr().err == message + "\n"


def test_max_vectors_cap(capsys):
    assert main(["analyze", UNPROTECTED, "--faults", "3", "--jobs", "1",
                 "--max-vectors", "10"]) == 1
    assert "cap" in capsys.readouterr().err


def _run_cli(*argv):
    # a hang fails its own test instead of running into the CI job's limit
    return subprocess.run([sys.executable, "-m", "modfault.cli", *argv],
                          capture_output=True, text=True, timeout=60)


def test_console_script_installed():
    assert _run_cli("parse", UNPROTECTED).returncode == 0


def test_gcd_check_without_message_input_maps_to_exit_1(tmp_path):
    src = tmp_path / "no-message.fj"
    src.write_text("noprop e ;\nprime {p}, {q} ;\ny := e * p ;\nreturn y ;\n_ != @\n")
    proc = _run_cli("oracle", str(src), "--trials", "5", "--prop1")
    assert proc.returncode == 1
    assert "error: the gcd attack check needs the inputs M and e; missing: M" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oracle_takes_crt_primes_by_name_or_order(tmp_path):
    src = tmp_path / "q-and-s.fj"
    src.write_text("prime q, s ;\nnoprop a ;\nx := a mod (q * s) ;\nreturn x ;\n_ != @\n")
    proc = _run_cli("oracle", str(src))
    assert proc.returncode == 0, proc.stderr
    assert "soundness: pass" in proc.stdout


@pytest.mark.parametrize("source, message", [
    ("prime a, b, c, d, f, g, h, i, j ;\nx := a * j ;\nreturn x ;\n_ != @\n",
     "error: 9 prime inputs; the oracle draws from 8 toy primes"),
    ("noprop a, b ;\nx := b^(a^-1) mod (a^(a*a) + 1) ;\nreturn x ;\n_ != @\n",
     "error: cannot factor a "),
], ids=["nine-primes", "wide-modulus"])
def test_oracle_input_errors_map_to_exit_1(tmp_path, source, message):
    src = tmp_path / "bad-input.fj"
    src.write_text(source)
    proc = _run_cli("oracle", str(src), "--trials", "5")
    assert proc.returncode == 1
    assert proc.stderr.startswith(message)
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_nominal_abort_names_the_file(tmp_path):
    src = tmp_path / "self-abort.fj"
    src.write_text("noprop x ;\nif x != 0 abort with x ;\nreturn x ;\n_ != @\n")
    proc = _run_cli("analyze", str(src), "--jobs", "1")
    assert proc.returncode == 1
    assert f"error: {src}: nominal run" in proc.stderr
    assert "Traceback" not in proc.stderr


DEEP_EXPRESSIONS = {
    "parens": "(" * 1000 + "a" + ")" * 1000,
    "powers": "a" + " ^ a" * 2000,
}


@pytest.mark.parametrize("name", sorted(DEEP_EXPRESSIONS))
def test_deep_expression_maps_to_exit_1(tmp_path, name):
    deep = tmp_path / f"{name}.fj"
    deep.write_text(f"noprop a ;\nx := {DEEP_EXPRESSIONS[name]} ;\nreturn x ;\n_ != @\n")
    proc = _run_cli("analyze", str(deep), "--jobs", "1")
    assert proc.returncode == 1
    assert f"{deep}: expression nested too deeply at 2:" in proc.stderr
    assert "Traceback" not in proc.stderr


def _chain_program():
    lines = ["noprop a ;", "x0 := a ;"]
    lines += [f"x{i} := x{i - 1} * a ;" for i in range(1, 1000)]
    return "\n".join(lines + ["return x999 ;", "_ != @"]) + "\n"


DEEP_TERMS = {
    # parses, but inlines to a product nested 1,000 deep
    "chain": _chain_program(),
    # parses, but prints too deeply nested
    "minus": "noprop a ;\nx := " + "- " * 600 + "a ;\nreturn x ;\n_ != @\n",
}


@pytest.mark.parametrize("name, argv", [
    ("chain", ["analyze", "--jobs", "1"]),
    ("chain", ["analyze", "--jobs", "2"]),
    ("chain", ["oracle"]),
    ("minus", ["parse"]),
])
def test_deep_term_maps_to_exit_1(tmp_path, name, argv):
    deep = tmp_path / f"{name}.fj"
    deep.write_text(DEEP_TERMS[name])
    proc = _run_cli(argv[0], str(deep), *argv[1:])
    assert proc.returncode == 1
    assert f"error: {deep}: terms nest too deeply to analyze" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", UNPROTECTED, "--jobs", "1"],
    ["sites", UNPROTECTED],
    ["parse", UNPROTECTED],
], ids=["analyze", "sites", "parse"])
def test_closed_stdout_maps_to_exit_1(argv):
    # the reader is gone before the first byte, as when `| head` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "modfault.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # criterion 7's JSON report from two interpreters that hash strings
    # differently: fault sites, faults and vectors key dicts on every vector
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        proc = subprocess.run(
            [sys.executable, "-m", "modfault.cli", "analyze", FIXED, "--faults", "2",
             "--kinds", "zeroing", "--protect-conditions", "--jobs", "1",
             "--format", "json", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 2, proc.stderr
        report = json.loads((out / "vigilant-fixed.report.json").read_text())
        report.pop("duration_ms")
        reports.append(report)
    assert reports[0] == reports[1]
