"""Outage probability and coverage curves."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwpl.los_probability import MAX_GRID_POINTS, p_los_model
from mmwpl.pathloss import (
    CloseInModel,
    HybridModel,
    OutageSpec,
    coverage_curve,
    hybrid_from_preset,
    mean_pl_close_in,
    mean_pl_floating,
    mean_pl_hybrid,
    outage_monte_carlo,
    outage_probability,
    sample_pl,
    shadow_sigma_hybrid,
)

M28 = hybrid_from_preset("28GHz-NYC")
M28F = hybrid_from_preset("28GHz-NYC", nlos="floating")
M73 = hybrid_from_preset("73GHz-NYC")
M73F = hybrid_from_preset("73GHz-NYC", nlos="floating")

ZERO_SIGMA = HybridModel(
    CloseInModel(28e9, 2.1, 0.0), CloseInModel(28e9, 3.4, 0.0), M28.p_los
)


class TestOutage:
    def test_threshold_at_mean_is_half(self):
        mean = mean_pl_hybrid(M28, 100.0)
        assert outage_probability(M28, 100.0, OutageSpec(mean)) == 0.5

    def test_infinite_budget_never_drops(self):
        assert outage_probability(M28, 100.0, OutageSpec(math.inf)) == 0.0

    def test_zero_sigma_degenerates_to_comparison(self):
        mean = mean_pl_hybrid(ZERO_SIGMA, 100.0)
        assert outage_probability(ZERO_SIGMA, 100.0, OutageSpec(mean + 1.0)) == 0.0
        assert outage_probability(ZERO_SIGMA, 100.0, OutageSpec(mean - 1.0)) == 1.0
        # budget exactly at the mean: the loss does not exceed it
        assert outage_probability(ZERO_SIGMA, 100.0, OutageSpec(mean)) == 0.0

    def test_pinned_analytic_value(self):
        assert np.isclose(outage_probability(M28, 100.0, OutageSpec(130.0)), 0.226546, atol=1e-5)

    def test_matches_monte_carlo(self):
        analytic = outage_probability(M28, 100.0, OutageSpec(130.0))
        rng = np.random.default_rng(1)
        draws = sample_pl(M28, 100.0, rng, size=100_000)
        mc = float(np.mean(draws > 130.0))
        assert abs(analytic - mc) < 0.005, f"analytic={analytic} mc={mc}"

    def test_within_three_standard_errors(self):
        spec = OutageSpec(120.0)
        analytic = outage_probability(M28, 80.0, spec)
        rng = np.random.default_rng(3)
        n = 100_000
        draws = sample_pl(M28, 80.0, rng, size=n)
        mc = float(np.mean(draws > 120.0))
        se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / n)
        assert abs(analytic - mc) <= 3 * se, f"analytic={analytic} mc={mc} se={se}"

    def test_monotone_in_threshold(self):
        thresholds = np.arange(80.0, 180.0, 1.0)
        values = [outage_probability(M28, 100.0, OutageSpec(t)) for t in thresholds]
        assert np.all(np.diff(values) <= 0)

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError):
            OutageSpec(math.nan)


class TestCoverage:
    def test_complement_identity(self):
        for d in (10.0, 50.0, 100.0, 200.0):
            outage = outage_probability(M28, d, OutageSpec(130.0))
            curve = coverage_curve(M28, OutageSpec(130.0), r_min=d, r_max=d, step=1.0)
            assert curve == [(d, 1.0 - outage)]

    def test_single_point_grid(self):
        curve = coverage_curve(M28, OutageSpec(130.0), r_min=42.0, r_max=42.0, step=5.0)
        assert len(curve) == 1
        assert curve[0][0] == 42.0

    def test_default_grid_length(self):
        assert len(coverage_curve(M28, OutageSpec(130.0))) == 191

    def test_integer_grid_gives_float_distances(self):
        curve = coverage_curve(M28, OutageSpec(130.0), 10, 11, 1)
        assert curve == coverage_curve(M28, OutageSpec(130.0), 10.0, 11.0, 1.0)
        assert [type(d) for d, _ in curve] == [float, float]

    def test_non_increasing_on_presets(self):
        d_grid = dict(r_min=10.0, r_max=200.0, step=0.5)
        for model in (M28, M28F, M73, M73F):
            for threshold in (100.0, 110.0, 120.0, 130.0, 140.0, 150.0):
                cov = [c for _, c in coverage_curve(model, OutageSpec(threshold), **d_grid)]
                assert np.all(np.diff(cov) <= 1e-12), (
                    f"coverage increased for threshold {threshold}"
                )

    def test_zero_sigma_step_curve(self):
        # deterministic loss crosses the budget once; coverage is a step
        spec = OutageSpec(mean_pl_hybrid(ZERO_SIGMA, 100.0))
        cov = [c for _, c in coverage_curve(ZERO_SIGMA, spec)]
        assert set(cov) == {0.0, 1.0}
        assert cov == sorted(cov, reverse=True)


class TestScalarArrayAgreement:
    """An array of distances gives exactly what one scalar call per distance gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([M28, M28F, M73, M73F, ZERO_SIGMA]),
        st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=30),
        st.one_of(st.floats(60.0, 200.0), st.sampled_from([math.inf, -math.inf])),
    )
    # distances where squaring a Python float (libm pow) and squaring in
    # numpy once rounded differently in the last bit
    @example(M73F, [121.25000000000003, 160.47000000000006], 130.0)
    @example(M28, [2398.2300000000005], -math.inf)
    def test_elementwise_equal(self, model, distances, threshold):
        d = np.array(distances)
        spec = OutageSpec(threshold)
        for fn, args in ((mean_pl_hybrid, ()), (shadow_sigma_hybrid, ()), (outage_probability, (spec,))):
            array_out = fn(model, d, *args)
            assert isinstance(array_out, np.ndarray) and array_out.shape == d.shape
            scalar_out = [fn(model, x, *args) for x in distances]
            assert all(type(v) is float for v in scalar_out)
            assert array_out.tolist() == scalar_out, fn.__name__


class TestMonteCarloOutage:
    """outage_monte_carlo gives the bytes of one sample_pl call per distance."""

    @staticmethod
    def per_distance(model, distances, threshold, seed, draws):
        rng = np.random.default_rng(seed)
        return [float(np.mean(sample_pl(model, d, rng, size=draws) > threshold)) for d in distances]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([M28, M28F, M73, M73F, ZERO_SIGMA]),
        st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=12),
        st.one_of(st.floats(60.0, 200.0), st.sampled_from([math.inf, -math.inf])),
        st.integers(0, 2**32 - 1),
        st.one_of(st.just(1), st.integers(1, 3000)),
    )
    @example(ZERO_SIGMA, [100.0], mean_pl_hybrid(ZERO_SIGMA, 100.0), 0, 1)
    def test_equals_sample_pl_loop(self, model, distances, threshold, seed, draws):
        spec = OutageSpec(threshold)
        out = outage_monte_carlo(model, np.array(distances), spec, np.random.default_rng(seed), draws)
        assert isinstance(out, np.ndarray) and out.shape == (len(distances),)
        assert out.tolist() == self.per_distance(model, distances, threshold, seed, draws)
        scalar = outage_monte_carlo(model, distances[0], spec, np.random.default_rng(seed), draws)
        assert type(scalar) is float
        assert scalar == out[0]

    def test_generator_advances_like_sample_pl(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        outage_monte_carlo(M28, np.array([50.0, 150.0]), OutageSpec(130.0), a, 1000)
        for d in (50.0, 150.0):
            sample_pl(M28, d, b, size=1000)
        assert a.standard_normal() == b.standard_normal()

    @pytest.mark.parametrize("n_distances", [1, 50, 500])
    def test_working_set_independent_of_grid(self, n_distances):
        draws = 20_000
        d = np.linspace(10.0, 200.0, n_distances)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            outage_monte_carlo(M28, d, OutageSpec(130.0), rng, draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * draws, peak

    @pytest.mark.parametrize("draws", [0, -1, MAX_GRID_POINTS + 1, 10**12, 2.5, 100.0])
    def test_draw_count_checked_before_allocating(self, draws):
        # sample_pl's size shares the check: 10**12 draws would ask for 7.28 TiB
        message = "an integer" if isinstance(draws, float) else "between 1 and"
        with pytest.raises(ValueError, match=f"^draws must be {message}"):
            outage_monte_carlo(M28, 100.0, OutageSpec(130.0), np.random.default_rng(1), draws)
        with pytest.raises(ValueError, match=f"^size must be {message}"):
            sample_pl(M28, 100.0, np.random.default_rng(1), size=draws)

    def test_distance_below_reference_rejected(self):
        with pytest.raises(ValueError, match=">= 1 m"):
            outage_monte_carlo(M28, np.array([0.5, 10.0]), OutageSpec(130.0), np.random.default_rng(1), 10)
        # sample_pl takes one distance: a grid is refused before anything is drawn
        for d in (np.array([50.0]), [50, 60]):
            rng = np.random.default_rng(1)
            with pytest.raises(ValueError, match="^sample_pl takes one distance.*outage_monte_carlo takes a grid"):
                sample_pl(M28, d, rng, size=10)
            assert rng.standard_normal() == np.random.default_rng(1).standard_normal()


NAN_CHECKS = {
    "p_los_model": (lambda d: p_los_model(d, M28.p_los), "distances must be positive"),
    "mean_pl_close_in": (lambda d: mean_pl_close_in(M28.los, d), "distances must be >= 1 m"),
    "mean_pl_floating": (lambda d: mean_pl_floating(M28F.nlos, d), "distances must be positive"),
    "mean_pl_hybrid": (lambda d: mean_pl_hybrid(M28, d), "distances must be >= 1 m"),
    "shadow_sigma_hybrid": (lambda d: shadow_sigma_hybrid(M28, d), "distances must be >= 1 m"),
    "outage_probability": (lambda d: outage_probability(M28, d, OutageSpec(130.0)), "distances must be >= 1 m"),
    "outage_monte_carlo": (
        lambda d: outage_monte_carlo(M28, d, OutageSpec(130.0), np.random.default_rng(0), 100),
        "distances must be >= 1 m",
    ),
    # one distance a call, so an array is sampled distance by distance
    "sample_pl": (
        lambda d: [sample_pl(M28, v, np.random.default_rng(0), size=100) for v in np.ravel(d)],
        "distances must be >= 1 m",
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_CHECKS))
@pytest.mark.parametrize(
    "d", [math.nan, np.array([50.0, math.nan, 100.0]), 10**400, [50.0, 10**400], None, "50", ["50", "60"]],
    ids=["scalar", "array", "10**400", "list-10**400", "None", "string", "strings"],
)
def test_nan_distance_rejected(name, d):
    """A NaN distance fails every distance check instead of coming back as NaN (or 0 outage).

    So does what is not numbers, a numeric string included, and an integer beyond float range.
    """
    call, message = NAN_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        call(d)
