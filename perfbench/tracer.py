"""Layer tracing for the benchmark, applied from outside the program.

``Tracer.install`` wraps the public functions of each ``spoofcm`` layer
and rebinds the wrapper in every ``spoofcm`` namespace that holds the
original, so ``vocoders.stft`` and ``dsp.stft`` both record. Each call
becomes a span (id, parent id, name, start, end, error, work counts),
kept in memory and written as JSON lines by ``Tracer.write``.

``aggregate`` folds a span list into per-function totals; the harness
turns those into the per-layer metrics named in ``BENCHMARK.json``.
This module imports nothing from ``spoofcm`` at import time, so the
harness can use ``aggregate`` without loading numpy.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _wav_bytes(w) -> int:
    return 2 * len(w.samples)  # 16-bit PCM payload


def _train_label(args, kwargs) -> str:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return f"{cfg.loss_mode}/{cfg.pairing}"


def _forward_backward_label(args, kwargs) -> str:
    cfg = args[3] if len(args) > 3 else kwargs.get("loss_cfg")
    return "ce" if cfg is None else cfg.mode


def _skipped(args, result) -> int:
    wanted = sum(1 for r in args[0] if r.label == "bonafide")
    done = sum(1 for r in result.records if r.label == "bonafide")
    return wanted - done


# (module, attribute, span name, label(args, kwargs) | None, work(args, result) | None)
# A dotted attribute names a method, which is wrapped on its class.
TARGETS = (
    ("spoofcm.cli", "main", "cli.main", None, None),
    ("spoofcm.experiment", "run_experiment", "experiment.run_experiment", None, None),
    ("spoofcm.experiment", "ensure_vocoded_set", "experiment.ensure_vocoded_set", None, None),
    ("spoofcm.manifest", "load_manifest", "manifest.load_manifest", None,
     lambda a, r: {"trials": len(r)}),
    ("spoofcm.corpus", "gen_desk_corpus", "corpus.gen_desk_corpus", None,
     lambda a, r: {"trials": len(r)}),
    ("spoofcm.corpus", "trim_nonspeech", "corpus.trim_nonspeech", None, None),
    ("spoofcm.vocoders", "build_vocoded_set", "vocoders.build_vocoded_set", None,
     lambda a, r: {"skipped": _skipped(a, r)}),
    ("spoofcm.vocoders", "copy_synthesize", "vocoders.copy_synthesize",
     lambda a, k: (a[1] if len(a) > 1 else k["channel"]).name,
     lambda a, r: {"audio_s": len(r.samples) / r.sample_rate}),
    ("spoofcm.vocoders", "griffin_lim", "vocoders.griffin_lim", None, None),
    ("spoofcm.dsp", "stft", "dsp.stft", None, lambda a, r: {"frames": r.n_frames}),
    ("spoofcm.dsp", "istft", "dsp.istft", None, lambda a, r: {"frames": a[0].n_frames}),
    ("spoofcm.dsp", "mel_pseudo_inverse", "dsp.mel_pseudo_inverse", None, None),
    ("spoofcm.dsp", "resample", "dsp.resample", None, None),
    ("spoofcm.lpc", "lpc_resynthesize", "lpc.lpc_resynthesize", None, None),
    ("spoofcm.augment", "apply_augment", "augment.apply_augment", None, None),
    ("spoofcm.training", "DataBundle.__init__", "training.DataBundle", None, None),
    ("spoofcm.training", "DataBundle.view", "training.DataBundle.view", None,
     lambda a, r: {"augmented": int((a[2] if len(a) > 2 else 1) >= 1)}),
    ("spoofcm.training", "train", "training.train", _train_label,
     lambda a, r: {"epochs": len(r[1])}),
    ("spoofcm.training", "compose_batch", "training.compose_batch", None, None),
    ("spoofcm.training", "adam_step", "training.adam_step", None, None),
    ("spoofcm.training", "score_manifest", "training.score_manifest", None,
     lambda a, r: {"trials": len(r[0]) + len(r[1]), "missing": len(r[1])}),
    ("spoofcm.model", "extract_base_features", "model.extract_base_features", None,
     lambda a, r: {"frames": int(r.shape[0])}),
    ("spoofcm.model", "forward_backward", "model.forward_backward", _forward_backward_label, None),
    ("spoofcm.contrastive", "cf_value_and_grad", "contrastive.cf_value_and_grad", None, None),
    ("spoofcm.metrics", "compute_eer", "metrics.compute_eer", None, None),
    ("spoofcm.stats", "significance_matrix", "stats.significance_matrix", None, None),
    ("spoofcm.audio_io", "read_wav", "audio_io.read_wav", None,
     lambda a, r: {"bytes": _wav_bytes(r)}),
    ("spoofcm.audio_io", "write_wav", "audio_io.write_wav", None,
     lambda a, r: {"bytes": _wav_bytes(a[1])}),
)


class Tracer:
    """Spans of one process, recorded by wrappers around layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.rebinds: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, fn, name, label, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                attrs = work(args, result) if work is not None and error is None else {}
                if label is not None:
                    attrs["label"] = label(args, kwargs)
                spans.append([sid, parent, name, t0, t1, error, attrs])

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Import every targeted module, then wrap and rebind each target."""
        for module, _, _, _, _ in TARGETS:
            importlib.import_module(module)
        package = [m for n, m in sorted(sys.modules.items()) if n == "spoofcm" or n.startswith("spoofcm.")]
        for module, attr, name, label, work in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, label, work))
                self.rebinds[name] = [f"{module}.{attr}"]
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, label, work)
            bound = []
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        bound.append(f"{mod.__name__}.{key}")
            self.rebinds[name] = bound

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"rebinds": self.rebinds}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def read_spans(path) -> tuple[dict, list[list]]:
    """The rebind table and span list written by ``Tracer.write``."""
    with open(path, encoding="utf-8") as f:
        rebinds = json.loads(f.readline())["rebinds"]
        return rebinds, [json.loads(line) for line in f]


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per-name totals: calls, inclusive and self seconds, errors, summed
    work counts, per-label calls and seconds, per-call ms per audio second,
    and how many spans had at least one direct child of each name (a
    cache that answered without calling its builder has none)."""
    child_time: dict[int, float] = {}
    child_names: dict[int, set] = {}
    for sid, parent, name, t0, t1, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
            child_names.setdefault(parent, set()).add(name)
    out: dict[str, dict] = {}
    for sid, parent, name, t0, t1, error, attrs in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
                                    "work": {}, "labels": {}, "samples": [], "with_child": {}})
        dur = t1 - t0
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_time.get(sid, 0.0)
        row["errors"] += error is not None
        for child in child_names.get(sid, ()):
            row["with_child"][child] = row["with_child"].get(child, 0) + 1
        for key, value in attrs.items():
            if key != "label":
                row["work"][key] = row["work"].get(key, 0) + value
        if "label" in attrs:
            lab = row["labels"].setdefault(attrs["label"], {"calls": 0, "s": 0.0})
            lab["calls"] += 1
            lab["s"] += dur
        if "audio_s" in attrs and attrs["audio_s"] > 0:
            row["samples"].append((attrs.get("label", ""), 1000.0 * dur / attrs["audio_s"]))
    return out
