"""End-to-end command line behavior, exit codes included.

Every test but the last shells out through ``python -m oockit`` so the
argv plumbing, exit codes, and stream separation are exercised exactly as
a user sees them.  The last calls `main` repeatedly in one process, as a
host program does, since the parser it uses is built once per process.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from oockit import from_json
from oockit.cli import main

BENCHMARK_PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"

RULES = (
    "parameter-consistency",
    "difference-sum",
    "difference-range",
    "position-consistency",
    "canonical-rotation",
    "auto-correlation-bound",
    "method-agreement",
    "cross-correlation-bound",
    "shared-difference",
    "set-size-bound",
    "stored-auto-correlation",
    "stored-cross-correlation",
    "family-separation",
)


def run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "oockit", *argv], capture_output=True, text=True
    )


def test_design_writes_a_parseable_document_to_stdout():
    result = run("design", "--n", "7", "--w", "3")
    assert result.returncode == 0
    doc = from_json(result.stdout)
    assert len(doc.sets) == 2
    assert doc.config["n"] == [7]


def test_design_then_verify_round_trip(tmp_path):
    out = tmp_path / "family.json"
    design = run("design", "--n", "13", "--w", "4", "--out", str(out))
    assert design.returncode == 0
    assert design.stdout == ""
    verify = run("verify", str(out))
    assert verify.returncode == 0
    assert verify.stdout.splitlines() == [f"PASS {rule}" for rule in RULES]


def test_design_csv_golden():
    result = run("design", "--n", "7", "--w", "3", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "set_id,n,w,dopr,wpr\n"
        "0,7,3,1-2-4,0-1-3\n"
        "1,7,3,2-1-4,0-2-3\n"
    )


def test_design_max_sets_cap():
    result = run("design", "--n", "31", "--w", "5", "--max-sets", "2")
    assert result.returncode == 0
    assert len(from_json(result.stdout).sets) <= 2


def test_design_multiple_parameter_tuples():
    result = run("design", "--n", "13,25", "--w", "4,3")
    assert result.returncode == 0
    doc = from_json(result.stdout)
    assert doc.sets
    assert doc.config == {
        "n": [13, 25],
        "w": [4, 3],
        "lambda_a": [1, 1],
        "lambda_c": [1, 1],
        "max_sets": None,
    }


def test_design_infeasible_exits_2():
    result = run("design", "--n", "4", "--w", "3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no conforming set" in result.stderr


def test_design_usage_errors_exit_1():
    cases = [
        ("design", "--n", "7"),                      # --w missing
        ("design", "--n", "7,13", "--w", "3"),       # list length mismatch
        ("design", "--n", "7", "--w", "2"),          # weight too small
        ("design", "--n", "seven", "--w", "3"),      # not an integer
        ("design", "--n", "7", "--w", "9"),          # w > n
        ("design", "--n", "7", "--w", "3", "--max-sets", "0"),
        ("design", "--n", "7,13", "--w", "3,4", "--lambda-a", "1,1,1"),
    ]
    for argv in cases:
        result = run(*argv)
        assert result.returncode == 1, argv
        assert result.stderr, argv


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--n", "25", "--w", "3", "--lambda-a", "1,2"), "has 2 entries, expected 1\n"),
        (("--n", "7,13", "--w", "3,4", "--lambda-c", "1,1,1"), "expected 1 or 2\n"),
    ],
)
def test_design_names_the_entry_counts_a_ceiling_list_may_have(argv, message):
    result = run("design", *argv)
    assert result.returncode == 1
    assert result.stderr.endswith(message)


def test_design_unwritable_output_exits_4(tmp_path):
    target = tmp_path / "missing-dir" / "family.json"
    result = run("design", "--n", "7", "--w", "3", "--out", str(target))
    assert result.returncode == 4
    assert "cannot write" in result.stderr


def test_verify_missing_file_exits_4():
    result = run("verify", "/no/such/file.json")
    assert result.returncode == 4
    assert "cannot read" in result.stderr


def test_verify_malformed_document_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format_version\": \"1\"}")
    result = run("verify", str(bad))
    assert result.returncode == 3
    assert result.stdout.startswith("FAIL document-format:")


def test_verify_non_json_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    result = run("verify", str(bad))
    assert result.returncode == 3
    assert "FAIL document-format" in result.stdout


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,  # past the parser's recursion limit
        b'{"format_version": ' + b"7" * 5000 + b"}",  # past the 4300-digit limit
    ],
    ids=["not-utf8", "deep-nesting", "huge-integer"],
)
def test_verify_unreadable_document_exits_3(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    result = run("verify", str(bad))
    assert result.returncode == 3
    assert result.stdout.startswith("FAIL document-format:")
    assert result.stderr == ""


def test_verify_tampered_document_exits_3(tmp_path):
    design = run("design", "--n", "13", "--w", "4")
    payload = json.loads(design.stdout)
    payload["sets"][0]["codes"][0]["wpr"] = [0, 2, 4, 6]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    result = run("verify", str(tampered))
    assert result.returncode == 3
    lines = result.stdout.splitlines()
    assert any(line.startswith("FAIL position-consistency") for line in lines)
    assert any(line == "PASS difference-sum" for line in lines)


def test_bound_prints_the_ceiling():
    result = run("bound", "--n", "25", "--w", "3", "--lambda", "1")
    assert result.returncode == 0
    assert result.stdout == "4\n"


def test_bound_rejects_bad_levels():
    result = run("bound", "--n", "25", "--w", "3", "--lambda", "0")
    assert result.returncode == 1
    assert "error" in result.stderr


def test_convert_binary_to_dopr():
    result = run("convert", "--binary", "0101001000100", "--to", "dopr")
    assert result.returncode == 0
    assert result.stdout == "dopr: 2-3-4-4\nstandard: 2-3-4-4\n"


def test_convert_dopr_to_canonical():
    result = run("convert", "--dopr", "2,5,13,4,7", "--n", "31")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "standard: 4-7-2-5-13"


def test_convert_wpr_to_binary():
    result = run("convert", "--wpr", "1,3,6,10", "--n", "13", "--to", "binary")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "binary: 0101001000100"


def test_convert_usage_errors_exit_1():
    cases = [
        ("convert", "--binary", "10201"),
        ("convert", "--binary", "1010", "--n", "5"),
        ("convert", "--wpr", "0,2"),                       # --n missing
        ("convert", "--dopr", "1,2", "--n", "7"),          # bad sum
        ("convert", "--binary", "101", "--dopr", "1,2"),   # exclusive flags
        ("convert", "--wpr", "0,9", "--n", "7"),           # position past n
    ]
    for argv in cases:
        result = run(*argv)
        assert result.returncode == 1, argv
        assert result.stderr, argv


def test_no_subcommand_exits_1():
    result = run()
    assert result.returncode == 1


def test_design_writes_nothing_to_stderr():
    result = run("design", "--n", "25", "--w", "3")
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert result.returncode == 0
    assert result.stderr == ""
    assert digest == json.loads(BENCHMARK_PINS.read_text("utf-8"))["25,3,1,1"]


def test_repeated_calls_in_one_process(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["design", "--n", "13", "--w", "4", "--out", str(good)]) == 0
    payload = json.loads(good.read_text())
    payload["sets"][0]["verified_lambda_a"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    passed = "".join(f"PASS {rule}\n" for rule in RULES)

    assert main(["verify", str(good)]) == 0
    assert capsys.readouterr().out == passed

    assert main(["verify", str(bad)]) == 3
    assert capsys.readouterr().out == passed.replace(
        "PASS stored-auto-correlation",
        "FAIL stored-auto-correlation: set 0: stored 2, recomputed 1",
    )

    with pytest.raises(SystemExit) as usage:
        main(["convert", "--binary", "101", "--dopr", "1,2"])
    assert usage.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err

    assert main(["convert", "--binary", "0101001000100", "--to", "dopr"]) == 0
    assert capsys.readouterr().out == "dopr: 2-3-4-4\nstandard: 2-3-4-4\n"

    assert main(["design", "--n", "7", "--w", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "set_id,n,w,dopr,wpr\n"
        "0,7,3,1-2-4,0-1-3\n"
        "1,7,3,2-1-4,0-2-3\n"
    )

    assert main(["verify", str(good)]) == 0
    assert capsys.readouterr().out == passed
