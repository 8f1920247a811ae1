"""The benchmark's tracer (perfbench/tracer.py) wraps spoofcm layers by name
and reads a few call shapes. These tests hold the package to that contract,
so a refactor that renames or reshapes a traced layer fails here rather than
in a benchmark run."""
import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

import spoofcm.cli as cli
from spoofcm.audio_io import write_wav
from spoofcm.manifest import TrialManifest, TrialRecord
from spoofcm.training import DataBundle
from spoofcm.vocoders import DEFAULT_CHANNEL_NAMES

from conftest import harmonic_speechlike

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"

CONFIG = """\
[experiment]
name = contract
seed = 3
seeds = 5

[data]
manifest = manifest.tsv

[channels]
names = phasernd

[augment]
kind = rawboost
k_views = 1

[train]
max_epochs = 1
patience = 1
feature_dim = 4
extractor_hidden = 6
head_hidden = 6

[systems]
ce_aug = ce, random
cecf_paired = ce+cf, paired
"""


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_run(tracer_module):
    """perfbench/run.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # run.py imports its sibling as "tracer"; dataclasses look their module up in sys.modules
    with mock.patch.dict(sys.modules, {"tracer": tracer_module, spec.name: module}):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run_layers(bench_run):
    """``RUN_LAYERS`` of perfbench/run.py: the wrappers its traced ``spoofcm run`` must see fire."""
    return bench_run.RUN_LAYERS


def test_every_target_resolves_to_a_callable(tracer_module):
    for module, attr, name, _, _ in tracer_module.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


@pytest.fixture
def traced(tracer_module):
    """A Tracer installed for one test; every rebinding is undone afterwards."""
    for module, *_ in tracer_module.TARGETS:
        importlib.import_module(module)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "spoofcm" or n.startswith("spoofcm.")]
    saved = {m: dict(vars(m)) for m in modules}
    saved_methods = {k: DataBundle.__dict__[k] for k in ("__init__", "view")}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        for module, namespace in saved.items():
            for key, value in namespace.items():
                setattr(module, key, value)
        for key, value in saved_methods.items():
            setattr(DataBundle, key, value)


def test_labels_and_work_counts_accept_current_call_shapes(traced, tracer_module, run_layers, cpus, tmp_path):
    """On one CPU, so every count below is the whole run's: on two, a worker's
    spans are not collected."""
    cpus(1)
    records = []
    for i, subset in enumerate(["train"] * 3 + ["dev"] * 2 + ["eval"] * 2):
        tid = f"c{i}"
        write_wav(tmp_path / f"{tid}.wav", harmonic_speechlike(duration=0.6, f0=120.0 + 20 * i, seed=i))
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, subset))
    TrialManifest(records, root=tmp_path).save(tmp_path / "manifest.tsv")
    (tmp_path / "run.ini").write_text(CONFIG)

    # cli.main is looked up at call time, as perfbench/child.py does, so its wrapper fires
    assert cli.main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "out")]) == 0
    rows = tracer_module.aggregate(traced.spans)
    assert [name for name in run_layers if name not in rows] == []
    # eval features are built once per run; scoring runs per (system, seed, set)
    n_eval = 2 * 2  # two bona fide eval trials and their phasernd spoofs
    assert rows["corpus.trim_nonspeech"]["calls"] == n_eval
    assert rows["training.score_manifest"]["calls"] == 2 * 1 * 2
    assert all(row["errors"] == 0 for row in rows.values())
    train_labels = rows["training.train"]["labels"]
    assert {k: v["calls"] for k, v in train_labels.items()} == {"ce/random": 1, "ce+cf/paired": 1}
    fb_labels = rows["model.forward_backward"]["labels"]
    assert set(fb_labels) == {"ce", "ce+cf"}
    # levels = both: one cf_value_and_grad call per level per contrastive batch
    assert rows["contrastive.cf_value_and_grad"]["calls"] == 2 * fb_labels["ce+cf"]["calls"]
    assert rows["vocoders.build_vocoded_set"]["work"] == {"skipped": 0}


def test_synth_at_another_rate_fires_every_synthesis_wrapper(traced, tracer_module, bench_run, tmp_path):
    """Every channel through an intermediate rate, as the synth_24k workload runs them: a kernel
    the synthesis code captured at import time, not looked up per call, would never fire."""
    records = []
    for i in range(2):
        tid = f"s{i}"
        write_wav(tmp_path / f"{tid}.wav", harmonic_speechlike(duration=0.6, f0=140.0 + 30 * i, seed=i))
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, "train"))
    TrialManifest(records, root=tmp_path).save(tmp_path / "manifest.tsv")
    assert cli.main([
        "synth", "--manifest", str(tmp_path / "manifest.tsv"), "--channels", ",".join(DEFAULT_CHANNEL_NAMES),
        "--intermediate-sr", "24000", "--out", str(tmp_path / "vocoded"),
    ]) == 0
    rows = tracer_module.aggregate(traced.spans)
    assert [name for name in bench_run.WORKLOADS["synth_24k"].expected_layers if name not in rows] == []
    assert all(row["errors"] == 0 for row in rows.values())
    assert tuple(rows["vocoders.copy_synthesize"]["labels"]) == DEFAULT_CHANNEL_NAMES


def test_each_system_trains_in_this_process_when_seeds_fork(traced, tracer_module, run_layers, cpus, forks,
                                                              tmp_path):
    """On two CPUs each system's second seed trains in a forked worker, whose
    spans are not collected: every layer a traced run must see still fires here,
    through each system's first seed."""
    records = []
    for i, subset in enumerate(["train"] * 3 + ["dev"] * 2 + ["eval"] * 2):
        tid = f"c{i}"
        write_wav(tmp_path / f"{tid}.wav", harmonic_speechlike(duration=0.6, f0=120.0 + 20 * i, seed=i))
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, subset))
    TrialManifest(records, root=tmp_path).save(tmp_path / "manifest.tsv")
    (tmp_path / "run.ini").write_text(CONFIG.replace("seeds = 5", "seeds = 5, 6"))
    cpus(2)
    assert cli.main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "out")]) == 0
    assert len(forks) == 5  # synthesis, the bundle, training once per system, eval_trim
    rows = tracer_module.aggregate(traced.spans)
    assert [name for name in run_layers if name not in rows] == []
    assert all(row["errors"] == 0 for row in rows.values())
    train_labels = rows["training.train"]["labels"]
    assert {k: v["calls"] for k, v in train_labels.items()} == {"ce/random": 1, "ce+cf/paired": 1}
