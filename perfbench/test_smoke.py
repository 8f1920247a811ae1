"""Smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced at the smallest legal
corpus (20 trials, the minimum of ``gen-corpus``) with ``--seconds 1``,
and checks that the result line names exactly the metrics listed in
``BENCHMARK.json``, each with a unit. Takes a few minutes.
"""
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "synth_24k", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_eer_oracle_matches_program():
    from run import eer_oracle
    from spoofcm.metrics import ScoreEntry, ScoreSet, compute_eer

    rng = random.Random(5)
    for _ in range(200):
        bona = [rng.choice([rng.gauss(1, 1), 0.5]) for _ in range(rng.randint(1, 12))]
        spoof = [rng.choice([rng.gauss(0, 1), 0.5]) for _ in range(rng.randint(1, 12))]
        entries = [ScoreEntry(f"b{i}", s, "bonafide") for i, s in enumerate(bona)]
        entries += [ScoreEntry(f"s{i}", s, "spoof") for i, s in enumerate(spoof)]
        assert eer_oracle(bona, spoof) == compute_eer(ScoreSet(entries)).eer
