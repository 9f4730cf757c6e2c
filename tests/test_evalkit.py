import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermotion.errors import DataError, DomainError
from layermotion.evalkit import (
    EvalReport,
    analyze_pseudo_masks,
    average_precision,
    evaluate,
)
from layermotion.scenegen import GroundTruth

from naive_ref import naive_average_precision, psnr


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        gt = [1, 1, 1, 0, 0]
        assert average_precision(scores, gt) == 1.0

    def test_worked_example(self):
        assert average_precision([0.9, 0.8, 0.3], [1, 0, 1]) == pytest.approx(
            5.0 / 6.0, abs=1e-12
        )

    def test_all_tied_matches_stable_order_brute_force(self):
        # With equal scores the convention keeps original index order; the
        # reference enumerates it explicitly for every small gt pattern.
        for n in range(1, 7):
            for bits in range(1, 2**n):
                gt = [(bits >> i) & 1 for i in range(n)]
                scores = [0.5] * n
                assert average_precision(scores, gt) == pytest.approx(
                    naive_average_precision(scores, gt), abs=1e-12
                )

    def test_random_against_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = rng.choice([0.1, 0.3, 0.5, 0.9], size=n)  # ties likely
            gt = rng.integers(0, 2, n)
            if gt.sum() == 0:
                continue
            assert average_precision(scores, gt) == pytest.approx(
                naive_average_precision(list(scores), list(gt)), abs=1e-12
            )

    def test_no_positives_raises(self):
        with pytest.raises(DomainError):
            average_precision([0.5, 0.4], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            average_precision([0.5], [0, 1])

    @settings(max_examples=60, deadline=None)
    @given(
        # Scores on a coarse grid: the monotone transforms below must stay
        # injective in float64, which raw floats near the underflow boundary
        # would break (x**3 can collapse distinct tiny values into a tie).
        st.lists(
            st.integers(min_value=0, max_value=1000).map(lambda v: v / 1000.0),
            min_size=2,
            max_size=30,
        ),
        st.data(),
    )
    def test_invariant_under_strictly_increasing_transforms(self, scores, data):
        gt = data.draw(
            st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))
        )
        if not any(gt):
            return
        base = average_precision(scores, gt)
        arr = np.asarray(scores)
        for transformed in (3.0 * arr + 1.0, arr**3, np.expm1(arr)):
            assert average_precision(transformed, gt) == pytest.approx(base, abs=1e-12)


def _gt(dyn, ss):
    dyn = np.asarray(dyn, dtype=bool)
    ss = np.asarray(ss, dtype=bool)
    return GroundTruth(rgb=np.zeros(dyn.shape + (3,)), mask_dyn=dyn, mask_ss=ss)


class TestEvaluate:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(2)
        dyn = rng.random((3, 8, 8)) > 0.7
        ss = (rng.random((3, 8, 8)) > 0.7) & ~dyn
        gt = _gt(dyn, ss)
        preds = {t: (ss[t].astype(float), dyn[t].astype(float)) for t in range(3)}
        rep = evaluate(preds, gt, range(3))
        assert rep.map_dyn == 1.0 and rep.map_ss == 1.0 and rep.map_union == 1.0

    def test_zero_scores_match_per_frame_brute_force(self):
        rng = np.random.default_rng(3)
        dyn = rng.random((2, 6, 6)) > 0.6
        gt = _gt(dyn, np.zeros_like(dyn))
        preds = {t: (np.zeros((6, 6)), np.zeros((6, 6))) for t in range(2)}
        rep = evaluate(preds, gt, range(2))
        expected = np.mean(
            [
                naive_average_precision([0.0] * 36, list(dyn[t].ravel().astype(int)))
                for t in range(2)
            ]
        )
        assert rep.map_dyn == pytest.approx(expected, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        dyn = rng.random((2, 8, 8)) > 0.8
        ss = (rng.random((2, 8, 8)) > 0.8) & ~dyn
        gt = _gt(dyn, ss)
        gt_swapped = _gt(ss, dyn)
        a = rng.random((2, 8, 8))
        b = rng.random((2, 8, 8))
        rep = evaluate({t: (a[t], b[t]) for t in range(2)}, gt, range(2))
        rep_sw = evaluate({t: (b[t], a[t]) for t in range(2)}, gt_swapped, range(2))
        assert rep.map_dyn == pytest.approx(rep_sw.map_ss)
        assert rep.map_ss == pytest.approx(rep_sw.map_dyn)

    def test_frames_without_positives_skipped_and_counted(self):
        dyn = np.zeros((2, 4, 4), dtype=bool)
        dyn[0, 1, 1] = True
        gt = _gt(dyn, np.zeros_like(dyn))
        preds = {t: (np.zeros((4, 4)), np.ones((4, 4))) for t in range(2)}
        rep = evaluate(preds, gt, range(2))
        assert rep.skipped["dyn"] == [1]
        assert rep.skipped["ss"] == [0, 1]
        assert 0 not in rep.skipped["dyn"]

    def test_shape_mismatch(self):
        gt = _gt(np.ones((1, 4, 4), dtype=bool), np.zeros((1, 4, 4), dtype=bool))
        with pytest.raises(DataError):
            evaluate({0: (np.zeros((3, 3)), np.zeros((3, 3)))}, gt, [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_score(self, bad, which):
        # argsort ranks NaN last, so a NaN score once gave a plausible AP.
        gt = _gt(np.eye(4, dtype=bool)[None], np.zeros((1, 4, 4), dtype=bool))
        masks = [np.full((4, 4), 0.5), np.full((4, 4), 0.5)]
        masks[which][2, 3] = bad
        with pytest.raises(DataError, match="non-finite"):
            evaluate({0: tuple(masks)}, gt, [0])

    def test_pure_function(self):
        rng = np.random.default_rng(5)
        dyn = rng.random((2, 5, 5)) > 0.5
        gt = _gt(dyn, np.zeros_like(dyn))
        preds = {t: (rng.random((5, 5)), rng.random((5, 5))) for t in range(2)}
        a = evaluate(preds, gt, range(2))
        b = evaluate(preds, gt, range(2))
        assert a.map_dyn == b.map_dyn and a.per_frame == b.per_frame

    def test_summary_table_layout(self):
        rep = EvalReport(
            map_dyn=0.5, map_ss=0.25, map_union=0.75,
            per_frame={c: {} for c in ("dyn", "ss", "union")},
            skipped={c: [] for c in ("dyn", "ss", "union")},
            label="ND",
        )
        table = rep.summary_table()
        assert "Dyn" in table and "SS" in table and "Dyn+SS" in table
        assert "50.00" in table and "25.00" in table and "75.00" in table


class TestAnalyzePseudoMasks:
    def test_exact_labels(self, bench_gt, bench_pseudo):
        from layermotion.scenegen import degrade_to_pseudo_masks

        exact = degrade_to_pseudo_masks(bench_gt, recall=1.0, fpr=0.0, seed=0)
        rows = [r for r in analyze_pseudo_masks(exact, bench_gt.mask_dyn) if r["threshold"] == 0.5]
        assert len(rows) == 1
        assert rows[0]["precision"] == 1.0
        assert rows[0]["recall"] == 1.0
        assert rows[0]["fpr"] == 0.0 and rows[0]["fnr"] == 0.0

    def test_inverted_labels(self):
        rng = np.random.default_rng(6)
        dyn = rng.random((2, 8, 8)) > 0.5
        rows = [r for r in analyze_pseudo_masks((~dyn).astype(float), dyn) if r["threshold"] == 0.5]
        assert len(rows) == 1
        assert rows[0]["precision"] == 0.0

    def test_default_degradation_high_precision_band(self, bench_gt, bench_pseudo):
        rows = [
            r for r in analyze_pseudo_masks(bench_pseudo, bench_gt.mask_dyn)
            if 0.3 - 1e-9 <= r["threshold"] <= 0.7 + 1e-9
        ]
        assert len(rows) == 9  # 0.30, 0.35, ..., 0.70
        assert all(r["precision"] >= 0.9 for r in rows)

    def test_recall_monotone_in_decreasing_threshold(self, bench_gt, bench_pseudo):
        rows = analyze_pseudo_masks(bench_pseudo, bench_gt.mask_dyn)
        recalls = [r["recall"] for r in rows]  # thresholds ascend
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_psnr_values():
    a = np.zeros((4, 4, 3))
    assert psnr(a, a) == np.inf
    b = np.full((4, 4, 3), 0.1)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)
