"""Benchmark harness for spoofcm: two workloads driven through the CLI.

    python3 perfbench/run.py --workload warm_train --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Each repetition sets up its inputs from
``--seed`` (a fresh desk corpus made by ``spoofcm gen-corpus``; warm_train
sets up once per run), then times one ``spoofcm`` command in a fresh
child process with BLAS pinned to one thread. Repetitions continue until the timed commands have used
``--seconds``. Every repetition is checked: exit codes, expected
artifacts, an independent recomputation of the EERs in ``results.csv``,
and SHA-256 digests that must agree across the run's repetitions.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
traced and untraced repetitions and prints the per-layer metrics taken
from the traced ones (see ``tracer.py``). The last stdout line is the
result object; the line before it is a report with the environment,
every repetition's figures and digests, and, when tracing, every
wrapped function's totals. See ``README.md`` for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import wave
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import aggregate, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 170.0  # the harness must exit within 180 s, set-up included
CORPUS_TRIALS = 20  # the smallest corpus gen-corpus accepts
CHANNELS = ("glmel", "coarsegl", "phasernd", "lpcvoc")
SYSTEMS = (("ce_aug", "ce", "random"), ("cecf_paired", "ce+cf", "paired"))
SETS = ("eval", "eval_trim", "pooled")
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EER_TOLERANCE = 1e-12
PROBE_REF_S = 0.0016  # scaled times read as on a host where a probe.py round takes this long

RUN_LAYERS = (
    "cli.main", "experiment.run_experiment", "experiment.ensure_vocoded_set",
    "manifest.load_manifest", "corpus.trim_nonspeech", "training.DataBundle",
    "training.DataBundle.view", "training.train", "training.compose_batch",
    "training.adam_step", "training.score_manifest", "model.extract_base_features",
    "model.forward_backward", "contrastive.cf_value_and_grad", "augment.apply_augment",
    "metrics.compute_eer", "stats.significance_matrix", "audio_io.read_wav",
)
SYNTH_LAYERS = (
    "vocoders.build_vocoded_set", "vocoders.copy_synthesize", "vocoders.griffin_lim",
    "dsp.stft", "dsp.istft", "dsp.mel_pseudo_inverse", "lpc.lpc_resynthesize",
    "audio_io.write_wav",
)
SETUP_LAYERS = ("corpus.gen_desk_corpus", "audio_io.write_wav")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "synth"
    expected_layers: tuple[str, ...]  # wrappers that must fire in a traced timed command
    seeds: tuple[int, ...] = (101,)
    epochs: int = 2
    warm: bool = False  # fill out/vocoded during set-up, so the timed run reads the cache
    intermediate_sr: int | None = None


WORKLOADS = {
    "warm_train": Workload("warm_train", "run", RUN_LAYERS, seeds=(101, 202), epochs=8, warm=True),
    "synth_24k": Workload(
        "synth_24k", "synth",
        ("cli.main", "manifest.load_manifest", "audio_io.read_wav", "dsp.resample") + SYNTH_LAYERS,
        intermediate_sr=24000,
    ),
}

END_TO_END_UNITS = {"scaled_wall_ms_per_audio_s": "ms/s", "scaled_cpu_ms_per_audio_s": "ms/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class RepFailed(Exception):
    """A repetition's command failed or its outputs did not check out."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def desk_ini(seed: int, seeds: tuple[int, ...], epochs: int, systems=SYSTEMS) -> str:
    lines = [
        "[experiment]", "name = bench", f"seed = {seed}", "seeds = " + ", ".join(map(str, seeds)), "",
        "[data]", "manifest = corpus/manifest.tsv", "",
        "[channels]", "names = " + ", ".join(CHANNELS), "",
        # rawboost, because with kind = none the default cecf_paired system
        # fails at the train stage (README.md)
        "[augment]", "kind = rawboost", "k_views = 1", "",
        "[train]", f"max_epochs = {epochs}", f"patience = {epochs}", "",
        "[systems]",
    ] + [f"{name} = {mode}, {pairing}" for name, mode, pairing in systems]
    return "\n".join(lines) + "\n"


def read_manifest(path: Path) -> list[dict]:
    """Rows of a manifest TSV, read without importing spoofcm, so that this
    process stays free of numpy and of the code under test."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:] if line.strip()]


def wav_shape(path: Path) -> tuple[int, int]:
    with wave.open(str(path), "rb") as f:
        return f.getnframes(), f.getframerate()


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _on_alarm(signum, frame):
    raise TimeoutError


def run_child(args: list[str], cwd: Path, deadline: float, spans: Path | None = None) -> dict:
    """Run one spoofcm command in a fresh process; wall, CPU and peak RSS
    come from ``wait4``, so they cover the child and its own children."""
    argv = [sys.executable, str(HERE / "child.py")] + (["--spans", str(spans)] if spans else []) + args
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **BLAS_PIN)
    env.pop("SPOOFCM_OUT_ROOT", None)
    log = cwd / f"{args[0]}.log"
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        raise RepFailed(f"spoofcm {args[0]} exited {proc.returncode}: {tail[0]}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


@contextmanager
def host_probe():
    """Run ``probe.py`` beside the enclosed commands. On a clean exit the
    yielded dict holds ``round_s``, the probe's mean CPU seconds per round
    over that time."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_PIN)
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=env)
    result = {}
    try:
        proc.stdout.readline()  # "ready"
        yield result
    finally:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    lines = out.strip().splitlines()
    round_s = json.loads(lines[-1]).get("cpu_s_per_round") if lines else None
    if not round_s:
        raise RepFailed("the host probe reported no rounds")
    result["round_s"] = round_s


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

def set_up(wl: Workload, seed: int, rep_dir: Path, deadline: float, spans: Path | None) -> None:
    """Make the repetition's corpus and, for a run, its config."""
    rep_dir.mkdir(parents=True)
    run_child(["gen-corpus", "--n", str(CORPUS_TRIALS), "--seed", str(seed), "--out", "corpus"],
              rep_dir, deadline, spans)
    if wl.command == "synth":
        return
    (rep_dir / "desk.ini").write_text(desk_ini(seed, wl.seeds, wl.epochs), encoding="utf-8")
    if wl.warm:
        # the vocoded cache key is the source manifest and the channels, so a
        # one-epoch, one-system run fills the same cache the timed run reads
        (rep_dir / "fill.ini").write_text(desk_ini(seed, (1,), 1, SYSTEMS[:1]), encoding="utf-8")
        run_child(["run", "--config", "fill.ini", "--out", "out"], rep_dir, deadline)


def timed_args(wl: Workload) -> list[str]:
    if wl.command == "synth":
        return ["synth", "--manifest", "corpus/manifest.tsv", "--channels", ",".join(CHANNELS),
                "--intermediate-sr", str(wl.intermediate_sr), "--out", "vocoded"]
    return ["run", "--config", "desk.ini", "--out", "out"]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_lines(pairs: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(pairs.items())).encode()).hexdigest()


def eer_oracle(bona: list[float], spoof: list[float]) -> float:
    """The EER convention documented in spoofcm.metrics, written again in
    plain Python: FRR(t) = P(bona < t), FAR(t) = P(spoof >= t), linear
    interpolation where FRR - FAR changes sign, lowest threshold on ties."""
    bona, spoof = sorted(bona), sorted(spoof)
    thresholds = sorted(set(bona) | set(spoof))
    frr = [0.0] + [bisect_left(bona, t) / len(bona) for t in thresholds] + [1.0]
    far = [1.0] + [(len(spoof) - bisect_left(spoof, t)) / len(spoof) for t in thresholds] + [0.0]
    for i in range(len(frr)):
        diff = frr[i] - far[i]
        if diff == 0.0:
            return frr[i]
        if diff > 0.0:
            d1 = frr[i - 1] - far[i - 1]
            alpha = -d1 / (diff - d1)
            return frr[i - 1] + alpha * (frr[i] - frr[i - 1])
    return 0.5


def check_vocoded(vocoded: Path, trials: list[dict], corpus: Path) -> dict[str, str]:
    """Every (trial, channel) WAV exists with its source's length and rate;
    returns the digest of each."""
    digests = {}
    for t in trials:
        source = wav_shape(corpus / t["path"])
        for ch in CHANNELS:
            path = vocoded / f"{t['trial_id']}_{ch}.wav"
            if not path.is_file():
                raise RepFailed(f"missing {path.name}")
            if wav_shape(path) != source:
                raise RepFailed(f"{path.name}: length or rate differs from its source")
            digests[path.name] = sha256_file(path)
    return digests


def check_run(wl: Workload, out: Path, trials: list[dict], corpus: Path) -> tuple[dict, dict]:
    """Artifacts, EER recomputation and digests of one ``spoofcm run``."""
    for name in ("results.csv", "summary.csv", "meta.json", "sig_p.csv", "sig_reject.csv",
                 "vocoded/manifest.tsv", "vocoded/build_meta.json"):
        if not (out / name).is_file():
            raise RepFailed(f"missing {name}")
    labels = {r["trial_id"]: r["label"] for r in read_manifest(out / "vocoded" / "manifest.tsv")}
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    results = {(r[0], int(r[1]), r[2]): (float(r[3]), int(r[5]), int(r[6])) for r in rows}
    expected = {(s, seed, set_name) for s, _, _ in SYSTEMS for seed in wl.seeds for set_name in SETS}
    if set(results) != expected or len(rows) != len(expected):
        raise RepFailed(f"results.csv rows {sorted(results)} != expected {sorted(expected)}")
    digests = {"results.csv": sha256_file(out / "results.csv"),
               "summary.csv": sha256_file(out / "summary.csv")}
    for system, _, _ in SYSTEMS:
        for seed in wl.seeds:
            run_dir = out / "runs" / f"{system}_seed{seed}"
            scored = {}
            for set_name in ("eval", "eval_trim"):
                path = run_dir / f"scores_{set_name}.txt"
                if not path.is_file():
                    raise RepFailed(f"missing {path.relative_to(out)}")
                pairs = [line.split("\t") for line in path.read_text().splitlines() if line]
                scored[set_name] = [(labels[tid], float(score)) for tid, score in pairs]
            scored["pooled"] = scored["eval"] + scored["eval_trim"]
            for set_name, entries in scored.items():
                bona = [s for lab, s in entries if lab == "bonafide"]
                spoof = [s for lab, s in entries if lab == "spoof"]
                eer, n_tar, n_non = results[(system, seed, set_name)]
                if (n_tar, n_non) != (len(bona), len(spoof)) or not 0.0 <= eer <= 1.0:
                    raise RepFailed(f"{system} seed {seed} {set_name}: bad counts or EER")
                if abs(eer - eer_oracle(bona, spoof)) > EER_TOLERANCE:
                    raise RepFailed(f"{system} seed {seed} {set_name}: EER disagrees with the oracle")
            for name in ("checkpoint.ckpt", "history.csv"):
                if not (run_dir / name).is_file():
                    raise RepFailed(f"missing {(run_dir / name).relative_to(out)}")
            digests[f"runs/{system}_seed{seed}/checkpoint.ckpt"] = sha256_file(run_dir / "checkpoint.ckpt")
    digests["vocoded/*.wav"] = sha256_lines(check_vocoded(out / "vocoded", trials, corpus))
    pooled = {}
    for line in (out / "summary.csv").read_text().splitlines()[1:]:
        system, set_name, mean_eer = line.split(",")
        if set_name == "pooled":
            pooled[system] = float(mean_eer)
    return digests, pooled


def check_synth(vocoded: Path, trials: list[dict], corpus: Path) -> dict:
    if not (vocoded / "manifest.tsv").is_file():
        raise RepFailed("missing vocoded/manifest.tsv")
    spoofs = [r for r in read_manifest(vocoded / "manifest.tsv") if r["label"] == "spoof"]
    if len(spoofs) != len(trials) * len(CHANNELS):
        raise RepFailed(f"vocoded/manifest.tsv lists {len(spoofs)} spoofs")
    return {"vocoded/manifest.tsv": sha256_file(vocoded / "manifest.tsv"),
            "vocoded/*.wav": sha256_lines(check_vocoded(vocoded, trials, corpus))}


def run_rep(wl: Workload, seed: int, run_dir: Path, index: int, deadline: float, traced: bool) -> dict:
    """Set up (a warm workload sets up once and reuses it), run the timed
    command, check its outputs."""
    rep = {"traced": traced, "ok": False}
    rep_dir = run_dir / ("rep0" if wl.warm else f"rep{index}")
    spans = {"setup": run_dir / f"rep{index}.setup.spans", "timed": run_dir / f"rep{index}.timed.spans"}
    try:
        if not rep_dir.exists():
            with host_probe() as probe:
                t0 = time.perf_counter()
                set_up(wl, seed, rep_dir, deadline, spans["setup"] if traced else None)
                setup_s = time.perf_counter() - t0
            rep["setup_s"], rep["setup_probe_round_s"] = setup_s, probe["round_s"]
        trials = read_manifest(rep_dir / "corpus" / "manifest.tsv")
        rep["audio_s"] = sum(
            n / sr for n, sr in (wav_shape(rep_dir / "corpus" / t["path"]) for t in trials)
        )
        with host_probe() as probe:
            timed = run_child(timed_args(wl), rep_dir, deadline, spans["timed"] if traced else None)
        rep.update(timed, probe_round_s=probe["round_s"])
        if wl.command == "synth":
            rep["digests"] = check_synth(rep_dir / "vocoded", trials, rep_dir / "corpus")
        else:
            rep["digests"], rep["eer_pooled"] = check_run(wl, rep_dir / "out", trials, rep_dir / "corpus")
        rep["digest"] = sha256_lines(rep["digests"])
        rep["ok"] = True
    except TimeoutError:
        rep["problem"] = "timed out at the run deadline"
    except (RepFailed, OSError, ValueError, KeyError, IndexError) as exc:
        rep["problem"] = f"{type(exc).__name__}: {exc}"
    if traced:
        rep["spans"] = {k: str(p) for k, p in spans.items() if p.is_file()}
    return rep


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def scaled(seconds: float, probe_round_s: float) -> float:
    """Seconds as they would read on a host whose probe round takes
    ``PROBE_REF_S``: the probe ran over the same seconds, so a slowdown of
    the whole host divides out."""
    return seconds * PROBE_REF_S / probe_round_s


def end_to_end(reps: list[dict]) -> dict:
    timed = [r for r in reps if "wall_s" in r]
    setups = [scaled(r["setup_s"], r["setup_probe_round_s"]) for r in reps if "setup_s" in r]
    if not timed or not setups:
        return {}
    # times are pooled over the repetitions (total time over total audio):
    # on a handful of repetitions a pooled figure spread less than their
    # median (README.md, "End-to-end metrics")
    audio_s = sum(r["audio_s"] for r in timed)
    values = {
        "scaled_wall_ms_per_audio_s":
            1000.0 * sum(scaled(r["wall_s"], r["probe_round_s"]) for r in timed) / audio_s,
        "scaled_cpu_ms_per_audio_s":
            1000.0 * sum(scaled(r["cpu_s"], r["probe_round_s"]) for r in timed) / audio_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "setup_s": statistics.median(setups),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def percentiles(samples: list[float]) -> tuple[float, float, float]:
    """Median, and the highest percentile with at least ten samples beyond
    it (never below the median), with that percentile's rank in percent."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    rank = len(ordered) - 10
    p50 = statistics.median(ordered)
    if rank < 1 or ordered[rank - 1] < p50:
        return p50, p50, 50.0
    return p50, ordered[rank - 1], 100.0 * rank / len(ordered)


_NOT_CALLED = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0, "work": {}, "labels": {},
               "samples": [], "with_child": {}}


def layer_values(timed: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (names in BENCHMARK.json)."""
    def row(name):
        return timed.get(name, _NOT_CALLED)

    v: dict[str, float] = {}
    for name, fields in (
        ("vocoders.copy_synthesize", ("calls",)), ("vocoders.griffin_lim", ("calls", "s", "self_s")),
        ("dsp.stft", ("calls", "frames", "s")), ("dsp.istft", ("calls", "frames", "s")),
        ("dsp.mel_pseudo_inverse", ("calls", "s")), ("lpc.lpc_resynthesize", ("calls", "s")),
        ("vocoders.build_vocoded_set", ("s", "skipped")), ("dsp.resample", ("calls", "s")),
        ("experiment.ensure_vocoded_set", ("s",)),
        ("contrastive.cf_value_and_grad", ("calls", "s")), ("training.adam_step", ("calls", "s")),
        ("training.compose_batch", ("calls", "s")), ("augment.apply_augment", ("calls", "s")),
        ("model.extract_base_features", ("calls", "frames", "s")), ("training.DataBundle", ("s",)),
        ("training.score_manifest", ("trials", "missing", "s")), ("corpus.trim_nonspeech", ("calls", "s")),
        ("metrics.compute_eer", ("calls", "s")), ("stats.significance_matrix", ("s",)),
        ("audio_io.read_wav", ("calls", "bytes", "s")), ("audio_io.write_wav", ("calls", "bytes", "s")),
        ("cli.main", ("s",)), ("manifest.load_manifest", ("calls", "s")),
    ):
        r = row(name)
        for field in fields:
            v[f"{name}.{field}"] = r[field] if field in ("calls", "s", "self_s") else r["work"].get(field, 0)
    ensure = row("experiment.ensure_vocoded_set")
    v["experiment.ensure_vocoded_set.hits"] = (
        ensure["calls"] - ensure["with_child"].get("vocoders.build_vocoded_set", 0))
    fb = row("model.forward_backward")["labels"]
    for mode, key in (("ce", "ce"), ("ce+cf", "ce-cf")):
        v[f"model.forward_backward.{key}.calls"] = fb.get(mode, {}).get("calls", 0)
        v[f"model.forward_backward.{key}.s"] = fb.get(mode, {}).get("s", 0.0)
    train = row("training.train")
    for system, mode, pairing in SYSTEMS:
        v[f"training.train.{system}.s"] = train["labels"].get(f"{mode}/{pairing}", {}).get("s", 0.0)
    v["training.train.epochs"] = train["work"].get("epochs", 0)
    view = row("training.DataBundle.view")
    requested = view["work"].get("augmented", 0)
    built = view["with_child"].get("augment.apply_augment", 0)
    v["training.view_cache.hit_ratio"] = (requested - built) / requested if requested else 0.0
    main_s = row("cli.main")["s"]
    v["trace.synthesis_share"] = row("vocoders.build_vocoded_set")["s"] / main_s if main_s else 0.0
    v["trace.training_share"] = train["s"] / main_s if main_s else 0.0
    v["trace.layer_errors"] = sum(r["errors"] for r in timed.values())
    return v


def per_layer(wl: Workload, reps: list[dict], names: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics: medians over the traced repetitions, with the
    ms-per-audio-second samples pooled across them."""
    problems = []
    per_rep, samples, tables, setup_s = [], {}, {}, []
    for i, rep in enumerate(reps):
        spans = rep.get("spans", {})
        if "setup" in spans:
            setup = aggregate(read_spans(spans["setup"])[1])
            silent = [n for n in SETUP_LAYERS if setup.get(n, {}).get("calls", 0) == 0]
            if silent:
                problems.append(f"rep {i}: set-up wrappers predicted to fire saw no calls: {silent}")
            setup_s.append(setup.get("corpus.gen_desk_corpus", {}).get("s", 0.0))
        if "timed" not in spans:
            continue
        rebinds, timed_spans = read_spans(spans["timed"])
        timed = aggregate(timed_spans)
        silent = [n for n in wl.expected_layers if timed.get(n, {}).get("calls", 0) == 0]
        if silent:
            problems.append(f"rep {i}: wrappers predicted to fire saw no calls: {silent}")
        per_rep.append(layer_values(timed))
        for label, ms in timed.get("vocoders.copy_synthesize", {}).get("samples", []):
            samples.setdefault(label, []).append(ms)
        tables = {"rebinds": rebinds, "timed": {n: {k: r[k] for k in ("calls", "s", "self_s", "errors", "work")}
                                                for n, r in sorted(timed.items())}}
    values = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]} if per_rep else {}
    values["corpus.gen_desk_corpus.s"] = statistics.median(setup_s) if setup_s else 0.0
    tails = {}
    for ch in CHANNELS:
        p50, tail, pct = percentiles(samples.get(ch, []))
        values[f"vocoders.copy_synthesize.{ch}.ms_per_audio_s.p50"] = p50
        values[f"vocoders.copy_synthesize.{ch}.ms_per_audio_s.tail"] = tail
        tails[ch] = {"n": len(samples.get(ch, [])), "tail_percentile": pct}
    walls = {t: [r["wall_s"] for r in reps if r["traced"] is t and r["ok"]] for t in (True, False)}
    values["trace.overhead_ratio"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) if all(walls.values()) else 0.0)
    digests = {t: {r["digest"] for r in reps if r["traced"] is t and "digest" in r} for t in (True, False)}
    values["trace.digests_equal"] = int(len(digests[True] | digests[False]) == 1)
    eers = [r["eer_pooled"] for r in reps if r.get("eer_pooled")]
    for system, _, _ in SYSTEMS:
        values[f"eer_pooled.{system}"] = eers[0][system] if eers else 0.0
    if not per_rep:
        problems.append("no traced repetition completed")
        return {}, {}, problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    return metrics, {"copy_synthesize_samples": tails, **tables}, problems


# ---------------------------------------------------------------------------
# Environment and main loop
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src_files = {str(p.relative_to(SRC)): sha256_file(p) for p in sorted(SRC.rglob("*.py"))}
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_PIN, "git_sha": sha, "src_sha256": sha256_lines(src_files),
        "workload_seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "spoofcm" / "cli.py").is_file():
        print(f"error: no spoofcm sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    # a terminated harness still kills and reaps its child (run_child) and
    # removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = started + RUN_DEADLINE_S
    run_dir = WORK_ROOT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    reps: list[dict] = []
    measured = longest = 0.0
    try:
        while len(reps) < (2 if args.trace else 1) or measured < args.seconds:
            now = time.perf_counter()
            if reps and now + 1.3 * longest > deadline:
                break
            rep = run_rep(wl, args.seed, run_dir, len(reps), deadline,
                          traced=bool(args.trace) and len(reps) % 2 == 0)
            reps.append(rep)
            measured += rep.get("wall_s", 0.0)
            longest = max(longest, time.perf_counter() - now)
            if not rep["ok"] and "wall_s" not in rep:
                break
        digests = [r["digest"] for r in reps if r["ok"]]
        common = max(set(digests), key=digests.count) if digests else None
        for rep in reps:
            if rep["ok"] and rep["digest"] != common:
                rep["ok"] = False
                rep["problem"] = "digests differ from the run's other repetitions"
        problems = []
        if args.trace:
            metrics, tables, problems = per_layer(wl, reps, bench["per_layer"])
        else:
            metrics, tables = end_to_end(reps), {}
        recorded = json.loads((HERE / "seed_digests.json").read_text()).get(wl.name, {}).get(str(args.seed))
        failed = sum(not r["ok"] for r in reps)
        report = {
            "workload": wl.name, "seed": args.seed, "trace": args.trace, "env": environment(args.seed),
            "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
            "digest": common,
            "seed_commit_digest": "not recorded" if recorded is None else ("match" if recorded == common else "differs"),
            "samples": {"setups": sum("setup_s" in r for r in reps),
                        "timed": sum("wall_s" in r and r["traced"] == bool(args.trace) for r in reps)},
            "problems": problems, **tables,
        }
        report_dir = WORK_ROOT / "reports"
        report_dir.mkdir(parents=True, exist_ok=True)
        (report_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8")
        for rep in reps:
            for path in rep.get("spans", {}).values():
                shutil.copy(path, report_dir / f"{wl.name}-seed{args.seed}-{Path(path).name}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not metrics:
        print(json.dumps({"report": report}))
        print("error: no repetition produced metrics", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
