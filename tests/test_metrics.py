import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofcm.errors import DataError, SpoofcmError
from spoofcm.manifest import TrialManifest, TrialRecord
from spoofcm.metrics import (
    ScoreEntry,
    ScoreSet,
    compute_eer,
    group_analysis,
    histogram_csv,
    load_scores,
    pooled_eer,
    save_scores,
)

from reference import eer_bruteforce


def make_set(bona, spoof, name="s"):
    entries = [ScoreEntry(f"b{i}", float(v), "bonafide", "-") for i, v in enumerate(bona)]
    entries += [ScoreEntry(f"s{i}", float(v), "spoof", "atk") for i, v in enumerate(spoof)]
    return ScoreSet(entries, name=name)


class TestComputeEer:
    def test_perfect_separation(self):
        r = compute_eer(make_set([3, 4, 5], [0, 1, 2]))
        assert r.eer == 0.0
        assert 2.0 <= r.threshold <= 3.0
        assert (r.n_tar, r.n_non) == (3, 3)

    def test_identical_distributions(self):
        r = compute_eer(make_set([1, 2, 3], [1, 2, 3]))
        assert np.isclose(r.eer, 0.5)

    def test_interleaved_matches_oracle_exactly(self):
        bona, spoof = [1, 3, 5, 7], [2, 4, 6]
        r = compute_eer(make_set(bona, spoof))
        assert r.eer == eer_bruteforce(bona, spoof)

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_b = int(rng.integers(1, 60))
            n_s = int(rng.integers(1, 60))
            sep = rng.uniform(-1.0, 2.0)
            bona = rng.standard_normal(n_b) + sep
            spoof = rng.standard_normal(n_s)
            if rng.random() < 0.3:  # force ties
                bona = np.round(bona, 1)
                spoof = np.round(spoof, 1)
            r = compute_eer(make_set(list(bona), list(spoof)))
            assert r.eer == eer_bruteforce(list(bona), list(spoof))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            compute_eer(ScoreSet([ScoreEntry("a", 1.0, "bonafide")]))

    @settings(max_examples=60, deadline=None)
    @given(
        bona=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40),
        spoof=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40),
    )
    def test_property_oracle_equality(self, bona, spoof):
        r = compute_eer(make_set(bona, spoof))
        assert r.eer == eer_bruteforce(bona, spoof)
        assert 0.0 <= r.eer <= 1.0

    def test_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        bona = rng.standard_normal(30) + 0.7
        spoof = rng.standard_normal(25)
        base = compute_eer(make_set(list(bona), list(spoof))).eer
        warped = compute_eer(make_set(list(np.tanh(bona) * 3 + 1), list(np.tanh(spoof) * 3 + 1))).eer
        assert np.isclose(base, warped)

    def test_label_swap_score_negation_symmetry(self):
        rng = np.random.default_rng(2)
        bona = rng.standard_normal(31) + 0.5
        spoof = rng.standard_normal(17)
        direct = compute_eer(make_set(list(bona), list(spoof))).eer
        swapped = compute_eer(make_set(list(-spoof), list(-bona))).eer
        assert abs(direct - swapped) < 1e-12


class TestPooledEer:
    def test_pooling_set_with_itself(self):
        rng = np.random.default_rng(3)
        s1 = make_set(list(rng.standard_normal(20) + 1), list(rng.standard_normal(20)), "a")
        s2 = make_set(list(rng.standard_normal(20) + 1), list(rng.standard_normal(20)), "b")
        same_twice = pooled_eer([s1, ScoreSet(s1.entries, name="copy")])
        assert np.isclose(same_twice.eer, compute_eer(s1).eer)
        assert pooled_eer([s1, s2]).eer == pooled_eer([s2, s1]).eer  # order invariance

    def test_pooled_strictly_between(self):
        perfect = make_set([2.0, 3.0, 4.0, 5.0], [-5.0, -4.0, -3.0, -2.0], "good")
        chance = make_set([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], "bad")
        pooled = pooled_eer([perfect, chance])
        assert compute_eer(perfect).eer < pooled.eer < compute_eer(chance).eer
        expected = eer_bruteforce(
            [2, 3, 4, 5, 0, 1, 2, 3], [-5, -4, -3, -2, 0, 1, 2, 3]
        )
        assert np.isclose(pooled.eer, expected)

    def test_partition_invariance(self):
        rng = np.random.default_rng(4)
        bona = list(rng.standard_normal(40) + 1)
        spoof = list(rng.standard_normal(40))
        one = pooled_eer([make_set(bona, spoof, "all")])
        two = pooled_eer([make_set(bona[:20], spoof[:15], "x"), make_set(bona[20:], spoof[15:], "y")])
        assert np.isclose(one.eer, two.eer)

    def test_sets_with_one_name_pool_as_sets_with_two(self):
        # two score files with one stem (runs/a/scores_eval.txt, runs/b/scores_eval.txt) share a set name
        rng = np.random.default_rng(5)
        halves = [(list(rng.standard_normal(12) + 1), list(rng.standard_normal(9))) for _ in range(2)]
        same = pooled_eer([make_set(*halves[0], "scores_eval"), make_set(*halves[1], "scores_eval")])
        assert same == pooled_eer([make_set(*halves[0], "x"), make_set(*halves[1], "y")])


class TestGroupAnalysis:
    def test_single_category_matches_full_eer(self):
        rng = np.random.default_rng(5)
        s = make_set(list(rng.standard_normal(20) + 1), list(rng.standard_normal(20)))
        reports = group_analysis(s, {"atk": "neural"})
        assert list(reports) == ["neural"]
        assert reports["neural"].eer.eer == compute_eer(s).eer

    def test_identical_distributions_equal_eers(self):
        rng = np.random.default_rng(6)
        bona = list(rng.standard_normal(30) + 1)
        sp = list(rng.standard_normal(30))
        entries = [ScoreEntry(f"b{i}", v, "bonafide") for i, v in enumerate(bona)]
        entries += [ScoreEntry(f"x{i}", v, "spoof", "tagA") for i, v in enumerate(sp)]
        entries += [ScoreEntry(f"y{i}", v, "spoof", "tagB") for i, v in enumerate(sp)]
        reports = group_analysis(ScoreSet(entries), {"tagA": "A", "tagB": "B"})
        assert np.isclose(reports["A"].eer.eer, reports["B"].eer.eer)

    def test_harder_category_has_higher_eer(self):
        rng = np.random.default_rng(7)
        bona = list(rng.standard_normal(50) + 2)
        hard = list(rng.standard_normal(50) + 1.5)  # overlaps bona
        easy = list(rng.standard_normal(50) - 3)
        entries = [ScoreEntry(f"b{i}", v, "bonafide") for i, v in enumerate(bona)]
        entries += [ScoreEntry(f"h{i}", v, "spoof", "hard") for i, v in enumerate(hard)]
        entries += [ScoreEntry(f"e{i}", v, "spoof", "easy") for i, v in enumerate(easy)]
        reports = group_analysis(ScoreSet(entries), {"hard": "H", "easy": "E"})
        assert reports["H"].eer.eer > reports["E"].eer.eer

    def test_unknown_tags_fall_into_other(self):
        s = make_set([1.0, 2.0], [0.0, -1.0])
        reports = group_analysis(s, {})
        assert list(reports) == ["other"]

    def test_histograms_count_everything(self):
        rng = np.random.default_rng(8)
        s = make_set(list(rng.standard_normal(25) + 1), list(rng.standard_normal(35)))
        rep = next(iter(group_analysis(s, {"atk": "A"}).values()))
        assert rep.bona_counts.sum() == 25 and rep.spoof_counts.sum() == 35
        assert len(rep.bona_counts) == 64

    def test_histogram_csv_fields_are_plain_numbers(self):
        s = make_set([0.1, 0.7, 0.3], [-0.2, 0.05])
        reports = group_analysis(s, {"atk": "A"})
        header, *lines = histogram_csv(reports).splitlines()
        assert header == "category,bin_lo,bin_hi,bona_count,spoof_count"
        rows = [line.split(",") for line in lines]
        assert {cat for cat, *_ in rows} == {"A"}
        edges = [(float(lo), float(hi)) for _, lo, hi, _, _ in rows]
        assert edges == list(zip(reports["A"].bin_edges[:-1], reports["A"].bin_edges[1:]))
        assert sum(int(r[3]) for r in rows) == 3 and sum(int(r[4]) for r in rows) == 2


class TestScoreFiles:
    def test_roundtrip_with_manifest(self, tmp_path):
        man = TrialManifest(
            [
                TrialRecord("t1", "t1.wav", "bonafide", "-", "t1", "eval"),
                TrialRecord("t2", "t2.wav", "spoof", "glmel", "t1", "eval"),
            ]
        )
        s = ScoreSet(
            [ScoreEntry("t1", 1.25, "bonafide"), ScoreEntry("t2", -0.5, "spoof", "glmel")]
        )
        save_scores(tmp_path / "scores.txt", s)
        assert (tmp_path / "scores.txt").read_text().splitlines()[0] == "t1\t1.25"
        back = load_scores(tmp_path / "scores.txt", man, set_name="eval")
        assert back.entries[1].attack_tag == "glmel"
        assert back.entries[0].score == 1.25

    def test_non_numeric_score_names_path_and_line(self, tmp_path):
        man = TrialManifest([TrialRecord("t1", "t1.wav", "bonafide", "-", "t1", "eval")])
        path = tmp_path / "scores.txt"
        path.write_text("t1\t0.5\nt1\tabc\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2")):
            load_scores(path, man)

    @pytest.mark.parametrize(
        "text, where",
        [("t1\t0.5\nzz\t0.5\n", ":2: trial id not in manifest: zz"),
         ("t1\t0.5\n\nt1\t0.7\n", ":3: trial id 't1' already scored on line 1"),
         ("\nt1\tnan\n", ":2: t1: non-finite score"),
         ("t1\t-inf\n", ":1: t1: non-finite score")],
        ids=["unknown-id", "repeated-id", "nan", "inf"],
    )
    def test_bad_trial_id_names_path_and_line(self, tmp_path, text, where):
        man = TrialManifest([TrialRecord("t1", "t1.wav", "bonafide", "-", "t1", "eval")])
        path = tmp_path / "scores.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{path}{where}")):
            load_scores(path, man)

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.text(st.characters(blacklist_categories=("Cs",))),
                st.tuples(
                    st.sampled_from(["t1", "t2", "t3", "", "t1 "]),
                    st.one_of(st.floats().map(repr), st.text(st.characters(blacklist_categories=("Cs",)))),
                ).map("\t".join),
            ),
            max_size=6,
        )
    )
    def test_arbitrary_lines_raise_only_typed_errors(self, tmp_path_factory, lines):
        man = TrialManifest(
            [
                TrialRecord("t1", "t1.wav", "bonafide", "-", "t1", "eval"),
                TrialRecord("t2", "t2.wav", "spoof", "glmel", "t1", "eval"),
            ]
        )
        path = tmp_path_factory.mktemp("scores") / "scores.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            load_scores(path, man)
        except SpoofcmError:
            pass
