"""Path loss models: close-in, floating intercept, hybrid mean and sampling."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwpl.los_probability import LosProbabilityCurve, LosProbParams, p_los_model, radius_grid
from mmwpl.pathloss import (
    PRESETS,
    CloseInModel,
    FloatingInterceptModel,
    HybridModel,
    OutageSpec,
    PathLossSample,
    fit_close_in,
    fspl_at_reference,
    get_preset,
    hybrid_from_preset,
    mean_pl_close_in,
    mean_pl_floating,
    mean_pl_hybrid,
    sample_pl,
    shadow_sigma_hybrid,
)

M28 = hybrid_from_preset("28GHz-NYC")
M28F = hybrid_from_preset("28GHz-NYC", nlos="floating")
M73 = hybrid_from_preset("73GHz-NYC")
M73F = hybrid_from_preset("73GHz-NYC", nlos="floating")


class TestFspl:
    def test_published_reference_values(self):
        assert abs(fspl_at_reference(28e9) - 61.4) < 0.05
        assert abs(fspl_at_reference(73e9) - 69.7) < 0.05

    def test_unit_wavelength_ratio_is_zero(self):
        # at f = c / (4 pi), the 1 m reference loss collapses to 0 dB
        f = 299792458.0 / (4.0 * math.pi)
        assert abs(fspl_at_reference(f)) < 1e-12

    def test_rejects_bad_frequency(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                fspl_at_reference(bad)

    def test_rejects_frequency_whose_fspl_overflows(self):
        # 4 pi f overflows just above 1.43e307 Hz
        assert math.isfinite(fspl_at_reference(1.4e307))
        for bad in (1.5e307, 1e308):
            with pytest.raises(ValueError, match="too large for a finite free-space path loss"):
                fspl_at_reference(bad)
            with pytest.raises(ValueError, match="too large for a finite free-space path loss"):
                CloseInModel(bad, 2.0, 1.0)


class TestCloseIn:
    def test_reference_anchor(self):
        model = CloseInModel(28e9, 2.1, 3.6)
        assert mean_pl_close_in(model, 1.0) == fspl_at_reference(28e9)

    def test_los_value_at_100(self):
        assert abs(mean_pl_close_in(M28.los, 100.0) - 103.4) < 0.1

    def test_nlos_value_at_100(self):
        assert abs(mean_pl_close_in(M28.nlos, 100.0) - 129.4) < 0.1

    def test_exponent_two_matches_free_space(self):
        model = CloseInModel(28e9, 2.0, 0.0)
        for d in (1.0, 3.7, 25.0, 180.0):
            direct = 20.0 * math.log10(4.0 * math.pi * d * 28e9 / 299792458.0)
            assert abs(mean_pl_close_in(model, d) - direct) < 1e-9

    def test_strictly_increasing(self):
        d = np.arange(1.0, 300.0, 0.25)
        for model in (M28.los, M28.nlos, M73.los, M73.nlos):
            assert np.all(np.diff(mean_pl_close_in(model, d)) > 0)

    def test_below_reference_rejected(self):
        with pytest.raises(ValueError):
            mean_pl_close_in(M28.los, 0.5)

    def test_invariants(self):
        with pytest.raises(ValueError):
            CloseInModel(28e9, 0.0, 3.6)
        with pytest.raises(ValueError):
            CloseInModel(28e9, 2.1, -0.1)
        with pytest.raises(ValueError):
            CloseInModel(0.0, 2.1, 3.6)


class TestFloating:
    def test_28ghz_at_100(self):
        value, extrapolated = mean_pl_floating(M28F.nlos, 100.0)
        assert abs(value - 131.2) < 0.1
        assert extrapolated is False

    def test_73ghz_at_100(self):
        value, extrapolated = mean_pl_floating(M73F.nlos, 100.0)
        assert abs(value - 138.6) < 0.1
        assert extrapolated is False

    def test_extrapolation_flag_below_range(self):
        value, extrapolated = mean_pl_floating(M28F.nlos, 10.0)
        assert abs(value - 105.2) < 0.1
        assert extrapolated is True

    def test_range_endpoints_are_in_range(self):
        for d in (30.0, 200.0):
            _, extrapolated = mean_pl_floating(M28F.nlos, d)
            assert extrapolated is False

    def test_array_evaluation(self):
        values, flags = mean_pl_floating(M28F.nlos, np.array([10.0, 100.0, 250.0]))
        assert flags.tolist() == [True, False, True]
        assert np.all(np.diff(values) > 0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            FloatingInterceptModel(79.2, 2.6, 9.6, (200.0, 30.0))
        with pytest.raises(ValueError):
            FloatingInterceptModel(79.2, 2.6, -1.0)


class TestHybrid:
    def test_equals_los_below_breakpoint(self):
        # P is exactly 1 there, so the NLOS branch must contribute nothing
        for d in (5.0, 20.0, 27.0):
            assert mean_pl_hybrid(M28, d) == mean_pl_close_in(M28.los, d)

    def test_value_at_100(self):
        assert abs(mean_pl_hybrid(M28, 100.0) - 124.2) < 0.2

    def test_pinned_value_at_100(self):
        assert np.isclose(mean_pl_hybrid(M28, 100.0), 124.160964, atol=1e-5)

    def test_convex_combination(self):
        d = np.arange(1.0, 400.0, 0.5)
        lo = np.minimum(mean_pl_close_in(M28.los, d), mean_pl_close_in(M28.nlos, d))
        hi = np.maximum(mean_pl_close_in(M28.los, d), mean_pl_close_in(M28.nlos, d))
        mid = mean_pl_hybrid(M28, d)
        assert np.all(mid >= lo) and np.all(mid <= hi)

    def test_approaches_nlos_when_los_improbable(self):
        d = 400.0
        assert p_los_model(d, M28.p_los) < 0.01
        assert abs(mean_pl_hybrid(M28, d) - mean_pl_close_in(M28.nlos, d)) < 0.5

    def test_close_in_and_floating_stay_within_2db(self):
        d = np.arange(10.0, 200.0001, 0.1)
        for ci, fi in ((M28, M28F), (M73, M73F)):
            gap = np.abs(mean_pl_hybrid(ci, d) - mean_pl_hybrid(fi, d))
            assert gap.max() <= 2.0, f"max gap {gap.max():.3f} dB"

    def test_pinned_gap_maxima(self):
        d = np.arange(10.0, 200.0001, 0.1)
        gap28 = np.abs(mean_pl_hybrid(M28, d) - mean_pl_hybrid(M28F, d)).max()
        gap73 = np.abs(mean_pl_hybrid(M73, d) - mean_pl_hybrid(M73F, d)).max()
        assert np.isclose(gap28, 1.9116, atol=2e-3)
        assert np.isclose(gap73, 1.0571, atol=2e-3)


class TestShadowSigma:
    def test_collapses_to_los_sigma_below_breakpoint(self):
        assert shadow_sigma_hybrid(M28, 20.0) == 3.6

    def test_half_weight_value(self):
        model = HybridModel(
            CloseInModel(28e9, 2.1, 3.6),
            CloseInModel(28e9, 3.4, 9.7),
            M28.p_los,
        )
        # find the distance is not needed: check the formula at p = 0.5 directly
        sigma = math.sqrt(0.25 * 3.6**2 + 0.25 * 9.7**2)
        assert abs(sigma - 5.17) < 0.01
        # and the distance-parameterized version stays between the branches
        d = np.arange(1.0, 400.0, 1.0)
        s = shadow_sigma_hybrid(model, d)
        assert np.all(s <= 9.7 + 1e-12) and np.all(s >= 0)

    def test_pinned_sigma_at_100(self):
        assert np.isclose(shadow_sigma_hybrid(M28, 100.0), 7.782579, atol=1e-5)

    def test_equal_sigmas_shrink_at_half_weight(self):
        # with equal branch spreads the weighted sum loses variance:
        # sqrt(2) / 2 of the common sigma at p = 0.5
        model = HybridModel(
            CloseInModel(28e9, 2.1, 5.0), CloseInModel(28e9, 3.4, 5.0), M28.p_los
        )
        p = p_los_model(150.0, M28.p_los)
        expected = 5.0 * math.sqrt(p * p + (1 - p) * (1 - p))
        assert np.isclose(shadow_sigma_hybrid(model, 150.0), expected)

    # branch spreads anywhere in float range, subnormals included: the spread
    # neither overflows nor underflows, so it is at least the larger weighted
    # branch spread and at most the larger branch spread
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1.7e308),
        st.floats(0.0, 1.7e308),
        st.floats(0.0, 1.7e308, exclude_min=True),
        st.floats(0.0, 1.7e308, exclude_min=True),
        st.booleans(),
        st.floats(1.0, 1e12),
    )
    @example(1e-170, 1e-170, 27.0, 71.0, True, 100.0)
    @example(1.7e308, 1.7e308, 27.0, 71.0, True, 100.0)
    def test_spread_stays_between_weighted_branch_and_branch(self, s_los, s_nlos, d_bp, alpha, squared, d):
        params = LosProbParams(d_bp, alpha, squared)
        model = HybridModel(CloseInModel(28e9, 2.1, s_los), CloseInModel(28e9, 3.4, s_nlos), params)
        p = p_los_model(d, params)
        sigma = shadow_sigma_hybrid(model, d)
        assert math.isfinite(sigma)
        assert max(p * s_los, (1.0 - p) * s_nlos) <= sigma <= max(s_los, s_nlos)


class TestSampling:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([M28, M28F, M73, M73F]),
        st.floats(1.0, 5000.0),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 1, 1000]),
    )
    def test_zero_sigma_is_deterministic(self, base, d, seed, size):
        model = HybridModel(
            replace(base.los, shadow_std_db=0.0), replace(base.nlos, shadow_std_db=0.0), base.p_los
        )
        mean = mean_pl_hybrid(model, d)
        for rng_seed in (seed, seed + 1):
            draws = sample_pl(model, d, np.random.default_rng(rng_seed), size=size)
            assert np.all(np.asarray(draws) == mean)

    def test_same_seed_identical_streams(self):
        a = sample_pl(M28, 100.0, np.random.default_rng(9), size=1000)
        b = sample_pl(M28, 100.0, np.random.default_rng(9), size=1000)
        assert np.array_equal(a, b)

    def test_moment_match_at_100k(self):
        rng = np.random.default_rng(1)
        draws = sample_pl(M28, 100.0, rng, size=100_000)
        assert abs(draws.mean() - mean_pl_hybrid(M28, 100.0)) < 0.1
        assert abs(draws.std() / shadow_sigma_hybrid(M28, 100.0) - 1.0) < 0.02

    def test_scalar_draw(self):
        value = sample_pl(M28, 50.0, np.random.default_rng(4))
        assert isinstance(value, float)

    # sha256 of the float64 bytes of sample_pl at 1, 27, 100 and 500 m in that
    # order, with size None, 1 and 100000 at each distance, all on one
    # generator seeded 11: pins the draw order and the weighting arithmetic
    @pytest.mark.parametrize("model,digest", [
        (M28, "5dc51623d51934561c83eaf6dee8ddf1bff9a43995175dbe9ba2ce8233df38b8"),
        (M28F, "55dca420ea3bf580b482cd5c909fdc0b02b5138837de592db38152f9e1c5964f"),
        (M73, "6535ea2588e574ddda7e5bb1700f62d6507463ae491d881349d964cdeecd2514"),
        (M73F, "76a66264aa374c4e837f1c4d4f7a59a92c7df3887a98a9189dbff9b474b8d09e"),
    ], ids=["28GHz-close-in", "28GHz-floating", "73GHz-close-in", "73GHz-floating"])
    def test_pinned_sample_bytes(self, model, digest):
        rng = np.random.default_rng(11)
        h = hashlib.sha256()
        for d in (1.0, 27.0, 100.0, 500.0):
            for size in (None, 1, 100_000):
                h.update(np.float64(sample_pl(model, d, rng, size=size)).tobytes())
        assert h.hexdigest() == digest


class TestPresets:
    def test_labels(self):
        assert set(PRESETS) == {"28GHz-NYC", "73GHz-NYC"}

    def test_published_values_exact(self):
        p28 = get_preset("28GHz-NYC")
        assert (p28.los.exponent, p28.los.shadow_std_db) == (2.1, 3.6)
        assert (p28.nlos_close_in.exponent, p28.nlos_close_in.shadow_std_db) == (3.4, 9.7)
        assert (p28.nlos_floating.intercept_db, p28.nlos_floating.slope) == (79.2, 2.6)
        assert p28.nlos_floating.shadow_std_db == 9.6
        assert p28.nlos_floating.valid_range_m == (30.0, 200.0)
        p73 = get_preset("73GHz-NYC")
        assert (p73.los.exponent, p73.los.shadow_std_db) == (2.0, 4.8)
        assert (p73.nlos_close_in.exponent, p73.nlos_close_in.shadow_std_db) == (3.4, 7.9)
        assert (p73.nlos_floating.intercept_db, p73.nlos_floating.slope) == (80.6, 2.9)
        assert p73.nlos_floating.shadow_std_db == 7.8

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("60GHz-NYC")

    def test_default_p_los_is_pooled_fit(self):
        assert M28.p_los == LosProbParams(27.0, 71.0)

    def test_nlos_family_selection(self):
        assert isinstance(M28.nlos, CloseInModel)
        assert isinstance(M28F.nlos, FloatingInterceptModel)
        with pytest.raises(ValueError):
            hybrid_from_preset("28GHz-NYC", nlos="other")


TWO_SAMPLES = [PathLossSample(10.0, 100.0, "LOS"), PathLossSample(50.0, 120.0, "LOS")]

# An integer beyond float range or a value that is no number fails with the
# ValueError of inf, or of NaN where inf is allowed, never a bare
# OverflowError or TypeError.
BAD_NUMBERS = {
    "close-in exponent 10**400": (lambda: CloseInModel(28e9, 10**400, 3.6), "exponent must be positive, got 1000"),
    "close-in exponent None": (lambda: CloseInModel(28e9, None, 1.0), "exponent must be positive, got None"),
    "close-in sigma 10**400": (lambda: CloseInModel(28e9, 2.0, 10**400), "shadow_std_db must be >= 0, got 1000"),
    "floating intercept 10**400": (lambda: FloatingInterceptModel(10**400, 2.0, 3.0),
                                   "intercept_db and slope must be finite"),
    "floating range strings": (lambda: FloatingInterceptModel(70.0, 2.0, 3.0, ("a", "b")),
                               r"valid_range_m must satisfy 0 < min < max, got \('a', 'b'\)"),
    "floating range None": (lambda: FloatingInterceptModel(70.0, 2.0, 3.0, None),
                            "valid_range_m must satisfy 0 < min < max, got None"),
    "floating range triple": (lambda: FloatingInterceptModel(70.0, 2.0, 3.0, (30.0, 100.0, 200.0)),
                              r"valid_range_m must satisfy 0 < min < max, got \(30.0, 100.0, 200.0\)"),
    "sample distance 10**400": (lambda: PathLossSample(10**400, 100.0, "LOS"), "distance_m must be >= 1 m, got 1000"),
    "sample path loss 10**400": (lambda: PathLossSample(10.0, 10**400, "LOS"), "path_loss_db must be finite, got 1000"),
    "outage budget 10**400": (lambda: OutageSpec(10**400),
                              "max_path_loss_db must be a number within float range, got 1000"),
    "outage budget None": (lambda: OutageSpec(None), "max_path_loss_db must be a number within float range, got None"),
    "outage budget NaN": (lambda: OutageSpec(math.nan), "max_path_loss_db must not be NaN"),
    "fspl 10**400": (lambda: fspl_at_reference(10**400), "frequency_hz must be positive, got 1000"),
    "fit_close_in 10**400": (lambda: fit_close_in(TWO_SAMPLES, 10**400), "frequency_hz must be positive, got 1000"),
    "radius_grid r_max 10**400": (lambda: radius_grid(10, 10**400, 1.0),
                                  "grid of 10 to inf m in 1 m steps has more than 1000000 points"),
    "radius_grid step 10**400": (lambda: radius_grid(10, 200, 10**400),
                                 "r_min and step must be finite, got r_min=10 step=inf"),
    "radius_grid r_min -10**400": (lambda: radius_grid(-(10**400), 200, 1.0), "r_min must be positive, got -inf"),
    "radius_grid r_min None": (lambda: radius_grid(None, 200, 1.0), "r_min must be a number, got None"),
    "radius_grid step string": (lambda: radius_grid(10, 200, "1"), "step must be a number, got '1'"),
    "curve radii 10**400": (lambda: LosProbabilityCurve([10**400], [0.5], [True]),
                            "radii must be positive and finite$"),
    "curve p_los 10**400": (lambda: LosProbabilityCurve([10.0], [10**400], [True]),
                            r"valid p_los values must lie in \[0, 1\]$"),
    # numpy holds an integer past int64 as an object, though it is within float range
    "p_los_model distance 2**70": (lambda: p_los_model(2**70, M28.p_los),
                                   "distances must be positive, given as ints or floats; got dtype object,"),
    "mean_pl_hybrid distance 2**70": (lambda: mean_pl_hybrid(M28, [50.0, 2**70]),
                                      "distances must be >= 1 m, given as ints or floats; got dtype object,"),
}


@pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
def test_bad_numbers_raise_value_error(name):
    call, message = BAD_NUMBERS[name]
    with pytest.raises(ValueError, match=f"^{message}"):
        call()
