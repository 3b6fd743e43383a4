import json
import subprocess
import sys

from modfault.cli import main

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


def test_parse_roundtrip_command(capsys):
    assert main(["parse", UNPROTECTED]) == 0
    out = capsys.readouterr().out
    assert "return S ;" in out


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


def test_zero_faults_maps_to_exit_1(capsys):
    assert main(["analyze", UNPROTECTED, "--faults", "0"]) == 1
    assert "max_faults must be >= 1" in capsys.readouterr().err


def test_bad_format_is_rejected_before_analysis(monkeypatch, capsys):
    def no_analysis(*args, **kwargs):
        raise AssertionError("analyze ran before the format was checked")

    monkeypatch.setattr("modfault.cli.analyze", no_analysis)
    assert main(["analyze", FIXED, "--jobs", "1", "--format", "text,jsn"]) == 1
    assert "unknown format 'jsn'" in capsys.readouterr().err


def test_max_vectors_cap(capsys):
    assert main(["analyze", UNPROTECTED, "--faults", "3", "--jobs", "1",
                 "--max-vectors", "10"]) == 1
    assert "cap" in capsys.readouterr().err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "modfault.cli", "parse",
                           UNPROTECTED], capture_output=True, text=True)
    assert proc.returncode == 0
