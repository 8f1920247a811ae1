import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spoofcm.vocoders
from spoofcm.audio_io import write_wav
from spoofcm.cli import main
from spoofcm.experiment import ensure_vocoded_set, load_config, run_experiment
from spoofcm.errors import ConfigError, SpoofcmError
from spoofcm.manifest import TrialManifest, TrialRecord, load_manifest
from spoofcm.vocoders import SYNTHESIS_VERSION, CoarseMelGlChannel, PhaseRandomChannel

from conftest import harmonic_speechlike

TINY_CONFIG = """\
[experiment]
name = tiny
seed = 77
seeds = 5

[data]
manifest = corpus/manifest.tsv
generate = 20

[channels]
names = coarsegl, phasernd

[augment]
kind = rawboost
k_views = 1

[train]
lr0 = 1e-3
max_epochs = 2
patience = 10
feature_dim = 16
extractor_hidden = 24
head_hidden = 24

[systems]
ce_aug = ce, random
cecf_paired = ce+cf, paired
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("exp")
    (base / "exp.ini").write_text(TINY_CONFIG)
    cfg = load_config(base / "exp.ini")
    report = run_experiment(cfg, base / "out", base_dir=base)
    return base, report


class TestRunExperiment:
    def test_report_structure(self, tiny_run):
        base, report = tiny_run
        out = report.out_dir
        for name in ("results.csv", "summary.csv", "meta.json", "sig_p.csv", "sig_reject.csv"):
            assert (out / name).exists(), name
        # 2 systems x 1 seed x (eval, eval_trim, pooled)
        assert len(report.results) == 6
        assert set(report.seed_means) == {
            (s, t) for s in ("ce_aug", "cecf_paired") for t in ("eval", "eval_trim", "pooled")
        }
        assert report.significance is not None
        assert report.significance.systems == ["ce_aug", "cecf_paired"]

    def test_run_artifacts_per_seed(self, tiny_run):
        base, report = tiny_run
        run_dir = report.out_dir / "runs" / "cecf_paired_seed5"
        for name in ("checkpoint.ckpt", "history.csv", "scores_eval.txt", "scores_eval_trim.txt"):
            assert (run_dir / name).exists(), name

    def test_meta_embeds_hashes(self, tiny_run):
        import json

        base, report = tiny_run
        meta = json.loads((report.out_dir / "meta.json").read_text())
        assert meta["config_hash"]
        assert meta["manifest_hashes"]

    def test_rerun_is_byte_identical(self, tiny_run, tmp_path):
        base, report = tiny_run
        cfg = load_config(base / "exp.ini")
        rerun_dir = tmp_path / "out2"
        run_experiment(cfg, rerun_dir, base_dir=base)
        for rel in (
            "results.csv",
            "summary.csv",
            "sig_p.csv",
            "sig_reject.csv",
            "runs/ce_aug_seed5/checkpoint.ckpt",
            "runs/ce_aug_seed5/history.csv",
            "runs/cecf_paired_seed5/scores_eval.txt",
        ):
            assert (report.out_dir / rel).read_bytes() == (rerun_dir / rel).read_bytes(), rel

    def test_vocoded_set_reused_on_rerun(self, tiny_run, tmp_path):
        base, _ = tiny_run
        meta = (base / "out" / "vocoded" / "build_meta.json").read_text()
        cfg = load_config(base / "exp.ini")
        run_experiment(cfg, base / "out", base_dir=base)  # second pass reuses
        assert (base / "out" / "vocoded" / "build_meta.json").read_text() == meta


class TestVocodedCache:
    BASE = (CoarseMelGlChannel(iters=2), PhaseRandomChannel())

    @pytest.fixture
    def builds(self, tmp_path, monkeypatch):
        """Source manifest file, and the list of channel sets actually synthesized."""
        records = []
        for i in range(2):
            tid = f"trial{i}"
            write_wav(tmp_path / f"{tid}.wav", harmonic_speechlike(duration=0.6, seed=i))
            records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, "train"))
        manifest_file = tmp_path / "manifest.tsv"
        TrialManifest(records, root=tmp_path).save(manifest_file)
        calls = []
        real = spoofcm.vocoders.build_vocoded_set

        def counting(manifest, channels, out_dir):
            calls.append(list(channels))
            return real(manifest, channels, out_dir)

        monkeypatch.setattr(spoofcm.vocoders, "build_vocoded_set", counting)
        return manifest_file, calls

    def _ensure(self, manifest_file, channels):
        out = manifest_file.parent / "vocoded"
        return ensure_vocoded_set(load_manifest(manifest_file), manifest_file, list(channels), out)

    def test_identical_config_hits_cache(self, builds):
        manifest_file, calls = builds
        first = self._ensure(manifest_file, self.BASE)
        second = self._ensure(manifest_file, self.BASE)
        assert len(calls) == 1
        assert [r.trial_id for r in first] == [r.trial_id for r in second]
        meta = json.loads((manifest_file.parent / "vocoded" / "build_meta.json").read_text())
        assert meta["synthesis_version"] == SYNTHESIS_VERSION

    @pytest.mark.parametrize(
        "changed",
        [
            (CoarseMelGlChannel(n_mels=16, iters=2), PhaseRandomChannel()),
            (CoarseMelGlChannel(iters=3), PhaseRandomChannel()),
            (CoarseMelGlChannel(iters=2), PhaseRandomChannel(seed=7)),
        ],
        ids=["n_mels", "iters", "seed"],
    )
    def test_changed_channel_parameter_rebuilds(self, builds, changed):
        manifest_file, calls = builds
        self._ensure(manifest_file, self.BASE)
        self._ensure(manifest_file, changed)
        assert calls == [list(self.BASE), list(changed)]


class TestCli:
    def test_gen_corpus_and_synth_and_score_flow(self, tmp_path, capsys):
        assert main(["gen-corpus", "--n", "20", "--seed", "9", "--out", str(tmp_path / "c")]) == 0
        assert main([
            "synth",
            "--manifest", str(tmp_path / "c" / "manifest.tsv"),
            "--channels", "phasernd",
            "--out", str(tmp_path / "voc"),
        ]) == 0
        assert (tmp_path / "voc" / "manifest.tsv").exists()

    def test_full_cli_run_and_eer(self, tmp_path):
        (tmp_path / "exp.ini").write_text(TINY_CONFIG.replace("cecf_paired = ce+cf, paired\n", ""))
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]) == 0
        scores = tmp_path / "out" / "runs" / "ce_aug_seed5" / "scores_eval.txt"
        manifest = tmp_path / "out" / "vocoded" / "manifest.tsv"
        assert main([
            "eer", "--scores", str(scores), "--manifest", str(manifest),
            "--out", str(tmp_path / "eer.csv"),
        ]) == 0
        text = (tmp_path / "eer.csv").read_text()
        assert text.splitlines()[0] == "set,eer,threshold,n_tar,n_non"

        ckpt = tmp_path / "out" / "runs" / "ce_aug_seed5" / "checkpoint.ckpt"
        assert main([
            "score", "--checkpoint", str(ckpt), "--manifest", str(manifest),
            "--out", str(tmp_path / "rescored.txt"),
        ]) == 0
        assert (tmp_path / "rescored.txt").exists()

        assert main([
            "group-report", "--scores", str(scores), "--manifest", str(manifest),
            "--grouping", "phasernd=phase,coarsegl=gl",
            "--out", str(tmp_path / "groups"),
        ]) == 0
        assert (tmp_path / "groups" / "category_eer.csv").exists()

    def test_sigtest_command(self, tmp_path):
        results = tmp_path / "r.csv"
        results.write_text("system,eer,n_tar,n_non\nA,0.01,5000,5000\nB,0.49,5000,5000\n")
        assert main(["sigtest", "--results", str(results), "--out", str(tmp_path / "sig")]) == 0
        reject = (tmp_path / "sig" / "sig_reject.csv").read_text()
        assert reject.splitlines()[1] == "A,0,1"

    @pytest.mark.parametrize(
        "bad, code", [("scores", 2), ("manifest", 2), ("config", 1)], ids=["scores", "manifest", "config"]
    )
    def test_non_utf8_input_is_a_typed_error(self, tmp_path, capsys, bad, code):
        files = {"scores": tmp_path / "s.txt", "manifest": tmp_path / "m.tsv", "config": tmp_path / "exp.ini"}
        TrialManifest([TrialRecord("a", "a.wav", "bonafide", "-", "a", "eval")], tmp_path).save(files["manifest"])
        files["scores"].write_text("a\t0.5\n")
        files["config"].write_text(TINY_CONFIG)
        files[bad].write_bytes(files[bad].read_bytes() + b"\xff\xfe\n")
        capsys.readouterr()
        if bad == "config":
            for command in ("run", "train"):
                assert main([command, "--config", str(files["config"]), "--out", str(tmp_path / "o")]) == code
                assert str(files["config"]) in capsys.readouterr().err
        else:
            assert main(["eer", "--scores", str(files["scores"]), "--manifest", str(files["manifest"])]) == code
            assert str(files[bad]) in capsys.readouterr().err

    def test_unparsable_value_names_section_and_key(self, tmp_path, capsys):
        (tmp_path / "exp.ini").write_text(TINY_CONFIG.replace("max_epochs = 2", "max_epochs = ten"))
        assert main(["train", "--config", str(tmp_path / "exp.ini")]) == 1
        assert "train.max_epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row", ["A,0.01,5000", "A,0.01,5000,5000,1", "A,x,5000,5000", "A,0.01,5000,five", "A,nan,5,5", "A,1.5,5,5"]
    )
    def test_sigtest_malformed_row_names_path_and_line(self, tmp_path, capsys, row):
        results = tmp_path / "r.csv"
        results.write_text(f"system,eer,n_tar,n_non\n{row}\nB,0.49,5000,5000\n")
        assert main(["sigtest", "--results", str(results), "--out", str(tmp_path / "sig")]) == 2
        assert f"{results}:2" in capsys.readouterr().err

    def test_sigtest_repeated_system_names_path_and_line(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        results.write_text("system,eer,n_tar,n_non\nA,0.01,5000,5000\nB,0.2,5000,5000\nA,0.49,5000,5000\n")
        assert main(["sigtest", "--results", str(results), "--out", str(tmp_path / "sig")]) == 2
        err = capsys.readouterr().err
        assert f"{results}:4" in err and "'A'" in err
        assert not (tmp_path / "sig").exists()

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                    st.floats().map(repr),
                    st.integers(min_value=-3, max_value=10**7).map(str),
                ),
                max_size=5,
            ).map(",".join),
            max_size=5,
        )
    )
    def test_sigtest_arbitrary_rows_raise_only_typed_errors(self, tmp_path_factory, rows):
        base = tmp_path_factory.getbasetemp()
        results = base / "sigtest_rows.csv"
        results.write_text("system,eer,n_tar,n_non\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["sigtest", "--results", str(results), "--out", str(base / "sigtest_out")]) in (0, 1, 2, 3)

    def test_exit_codes(self, tmp_path):
        assert main(["eer", "--scores", "missing.txt", "--manifest", "missing.tsv"]) == 2
        assert main(["synth", "--manifest", str(tmp_path / "nope.tsv")]) == 2
        assert main(["run"]) == 1  # missing --config
        with pytest.raises(ConfigError):
            # parser errors surface as ConfigError; main() maps them to exit 1
            from spoofcm.cli import build_parser

            build_parser().parse_args(["unknown-command"])
        assert main(["unknown-command"]) == 1
        (tmp_path / "garbage.ckpt").write_bytes(b"\x00not a checkpoint")
        assert main(["score", "--checkpoint", str(tmp_path / "garbage.ckpt"), "--manifest", "missing.tsv"]) == 2

    def test_augment_none_with_contrastive_system_fails_before_synthesis(self, tmp_path):
        (tmp_path / "exp.ini").write_text(TINY_CONFIG.replace("kind = rawboost", "kind = none"))
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "corpus").exists() and not (tmp_path / "out").exists()

    def test_augment_none_loads_when_no_view_is_asked_for(self, tmp_path):
        ce_only = TINY_CONFIG.replace("kind = rawboost", "kind = none").replace(
            "cecf_paired = ce+cf, paired\n", ""
        )
        (tmp_path / "ce.ini").write_text(ce_only)
        assert load_config(tmp_path / "ce.ini").augment_kind == "none"
        no_views = TINY_CONFIG.replace("kind = rawboost", "kind = none").replace("k_views = 1", "k_views = 0")
        (tmp_path / "k0.ini").write_text(no_views)
        assert load_config(tmp_path / "k0.ini").train.k_views == 0

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPOOFCM_OUT_ROOT", str(tmp_path / "root"))
        assert main(["gen-corpus", "--n", "20", "--seed", "4", "--out", "corp"]) == 0
        assert (tmp_path / "root" / "corp" / "manifest.tsv").exists()


_INI_KEYS = {
    "experiment": ("name", "seed", "seeds"),
    "data": ("manifest", "generate"),
    "channels": ("names", "intermediate_sr"),
    "augment": ("kind", "k_views"),
    "train": ("lr0", "lr_decay", "lr_decay_every", "batch_size", "max_seconds", "patience",
              "max_epochs", "feature_dim", "extractor_hidden", "head_hidden"),
    "cf": ("temperature", "levels"),
    "systems": ("ce_aug", "cecf_paired"),
}
_INI_VALUE = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
    st.integers(-2, 50).map(str),
    st.floats().map(repr),
    st.sampled_from(["ce, random", "ce+cf, paired", "both", "none", "1, 2", ""]),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_config_raises_only_typed_errors(tmp_path_factory, data):
    text = ""
    for name in sorted(data.draw(st.sets(st.sampled_from(sorted(_INI_KEYS))))):
        fields = data.draw(st.dictionaries(st.sampled_from(_INI_KEYS[name]), _INI_VALUE, max_size=4))
        text += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
    text += data.draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
    path = tmp_path_factory.getbasetemp() / "arbitrary.ini"
    path.write_text(text, encoding="utf-8")
    try:
        load_config(path)
    except SpoofcmError:
        pass
