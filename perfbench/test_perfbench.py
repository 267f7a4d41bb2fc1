"""Self-test of the benchmark on the tiny ladder (7,3,1,1) and (13,4,1,1).

Run from the repository root with ``python3 -m pytest perfbench``.  Each
test starts run.py in a subprocess, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root: Path, out: Path, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "selftest",
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--out", str(out)],
        cwd=root, capture_output=True, text=True, timeout=120, check=False,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    result = last_json(bench(ROOT, tmp_path, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


def test_traced_runs_emit_every_layer_metric_and_repeat_counts(tmp_path):
    first = last_json(bench(ROOT, tmp_path, trace=1))
    second = last_json(bench(ROOT, tmp_path, trace=1, seed=2))
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names == set(second["metrics"])
    assert first["correct"] and second["correct"]
    for name in names:
        if first["metrics"][name]["unit"] != "s":
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["cliques.build_graph.calls"]["value"] > 0
    assert first["metrics"]["document.verify_document.calls"]["value"] == 2
    spans = (tmp_path / "selftest.seed1.spans.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["fields"] == ["id", "parent", "op", "name", "start", "end"]
    assert len(spans) > 1


def test_changed_pin_is_reported_as_a_failed_operation(tmp_path):
    root = tmp_path / "checkout"
    root.mkdir()
    copy_checkout(root, with_sources=True)
    pins_path = root / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["7,3,1,1"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    proc = bench(root, tmp_path / "out", trace=0)
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "design 7,3,1,1: document sha256" in proc.stdout


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    root = tmp_path / "bare"
    root.mkdir()
    copy_checkout(root, with_sources=False)
    proc = bench(root, tmp_path / "out", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
