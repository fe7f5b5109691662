"""Regression of path loss models on measured scatter."""

import numpy as np
import pytest

from mmwpl import los_probability
from mmwpl.pathloss import (
    PathLossSample,
    fit_close_in,
    fit_floating,
    fspl_at_reference,
    samples_from_csv,
    samples_to_csv,
)


def synth(distances, pl_values, condition="NLOS"):
    return [PathLossSample(float(d), float(p), condition) for d, p in zip(distances, pl_values)]


class TestSampleType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathLossSample(0.5, 100.0, "LOS")
        with pytest.raises(ValueError):
            PathLossSample(10.0, np.nan, "LOS")
        with pytest.raises(ValueError):
            PathLossSample(10.0, 100.0, "los")


class TestCloseInFit:
    def test_noiseless_recovery(self):
        d = np.array([10.0, 20.0, 50.0, 100.0, 150.0, 200.0])
        pl = fspl_at_reference(28e9) + 34.0 * np.log10(d)
        model = fit_close_in(synth(d, pl), 28e9)
        assert abs(model.exponent - 3.4) < 1e-9
        assert model.shadow_std_db < 1e-9

    def test_two_point_textbook_value(self):
        model = fit_close_in(synth([10.0, 100.0], [81.4, 102.4], "LOS"), 28e9)
        assert abs(model.exponent - 2.04) < 0.01

    def test_gradient_condition_at_optimum(self):
        rng = np.random.default_rng(12)
        d = rng.uniform(10.0, 200.0, 200)
        pl = fspl_at_reference(28e9) + 34.0 * np.log10(d) + rng.normal(0, 9.7, 200)
        model = fit_close_in(synth(d, pl), 28e9)
        a = 10.0 * np.log10(d)
        b = pl - fspl_at_reference(28e9)
        gradient = float(np.sum(a * (b - model.exponent * a)))
        assert abs(gradient) < 1e-9, f"gradient {gradient}"

    def test_seeded_noisy_recovery(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(10.0, 200.0, 500)
        pl = fspl_at_reference(28e9) + 34.0 * np.log10(d) + rng.normal(0.0, 9.7, 500)
        model = fit_close_in(synth(d, pl), 28e9)
        assert abs(model.exponent - 3.4) < 0.15
        assert abs(model.shadow_std_db - 9.7) < 0.7

    def test_carries_frequency(self):
        model = fit_close_in(synth([10.0, 100.0], [100.0, 130.0]), 73e9)
        assert model.frequency_hz == 73e9

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_close_in(synth([10.0], [100.0]), 28e9)

    def test_all_reference_distance_rejected(self):
        with pytest.raises(ValueError):
            fit_close_in(synth([1.0, 1.0, 1.0], [60.0, 62.0, 64.0]), 28e9)


class TestFloatingFit:
    def test_noiseless_recovery(self):
        d = np.linspace(30.0, 200.0, 40)
        pl = 80.6 + 29.0 * np.log10(d)
        model = fit_floating(synth(d, pl))
        assert abs(model.intercept_db - 80.6) < 1e-9
        assert abs(model.slope - 2.9) < 1e-9
        assert model.shadow_std_db < 1e-9

    def test_valid_range_spans_data(self):
        model = fit_floating(synth([42.0, 60.0, 199.0], [110.0, 120.0, 135.0]))
        assert model.valid_range_m == (42.0, 199.0)

    def test_two_point_interpolation(self):
        model = fit_floating(synth([10.0, 100.0], [100.0, 126.0]))
        assert abs(model.slope - 2.6) < 1e-12
        assert model.shadow_std_db < 1e-12

    def test_seeded_noisy_recovery(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(30.0, 200.0, 500)
        pl = 80.6 + 29.0 * np.log10(d) + rng.normal(0.0, 7.8, 500)
        model = fit_floating(synth(d, pl))
        assert abs(model.intercept_db - 80.6) < 2.0
        assert abs(model.slope - 2.9) < 0.15
        assert abs(model.shadow_std_db - 7.8) < 0.7

    def test_free_space_data_matches_close_in_fit(self):
        # exact free-space scatter: the anchored and floating fits describe
        # the same line, slope 2 through FSPL at 1 m
        d = np.array([2.0, 5.0, 17.0, 60.0, 150.0])
        pl = fspl_at_reference(28e9) + 20.0 * np.log10(d)
        floating = fit_floating(synth(d, pl))
        anchored = fit_close_in(synth(d, pl), 28e9)
        assert abs(floating.intercept_db - fspl_at_reference(28e9)) < 1e-6
        assert abs(floating.slope - 2.0) < 1e-6
        assert abs(anchored.exponent - 2.0) < 1e-6

    def test_coincident_distances_rejected(self):
        with pytest.raises(ValueError, match="rank deficient"):
            fit_floating(synth([50.0, 50.0, 50.0], [100.0, 110.0, 120.0]))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_floating(synth([50.0], [100.0]))


class TestCsv:
    HEADER = "d_m,pl_db,condition\n"

    def test_round_trip(self):
        samples = synth([10.0, 55.5, 200.0], [95.0, 120.25, 140.0])
        back = samples_from_csv(samples_to_csv(samples))
        assert back == samples

    def test_condition_labels_preserved(self):
        text = self.HEADER + "10,95,LOS\n20,105,NLOS\n"
        samples = samples_from_csv(text)
        assert [s.condition for s in samples] == ["LOS", "NLOS"]

    def test_unmeasurable_rows_skipped(self):
        text = self.HEADER + "10,95,LOS\n150,,NLOS\n180,nan,NLOS\n190,-nan,NLOS\n195,+NaN,LOS\n20,105,NLOS\n"
        samples = samples_from_csv(text)
        assert len(samples) == 2
        assert [s.distance_m for s in samples] == [10.0, 20.0]

    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            samples_from_csv("distance,loss,cond\n10,95,LOS\n")

    def test_rejects_bad_condition(self):
        with pytest.raises(ValueError):
            samples_from_csv(self.HEADER + "10,95,maybe\n")

    def test_rejects_malformed_row(self):
        with pytest.raises(ValueError):
            samples_from_csv(self.HEADER + "10,95\n")

    def test_row_count_capped(self, monkeypatch):
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 3)
        assert len(samples_from_csv(self.HEADER + "10,95,LOS\n20,nan,LOS\n30,105,LOS\n")) == 2
        # skipped rows count too, and the cap is checked before any row is parsed
        with pytest.raises(ValueError, match="at most 3 rows, got 4"):
            samples_from_csv(self.HEADER + "10,95,LOS\n20,nan,LOS\n30,105,LOS\n40,bad\n")
