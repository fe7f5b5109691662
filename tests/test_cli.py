"""End-to-end exercise of the command line front-end.

Commands run in-process through main(argv) so exit codes and output can be
checked cheaply; one test goes through the real interpreter to cover the
module entry point.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mmwpl import demo, fitting, link_analysis, los_probability, pathloss
from mmwpl.cli import main
from mmwpl.geometry import Point3

POOLED = los_probability.LosProbParams(27.0, 71.0)


def write_empty_db(path):
    path.write_text(json.dumps({"name": "empty", "buildings": []}))
    return str(path)


def synth_curve_csv(path, params=POOLED):
    radii = los_probability.radius_grid(10.0, 200.0, 1.0)
    p = los_probability.p_los_model(radii, params)
    curve = los_probability.LosProbabilityCurve(radii, p, np.ones(radii.size, dtype=bool))
    path.write_text(los_probability.curve_to_csv(curve))
    return str(path)


class TestLosProb:
    def test_empty_scene_all_los(self, tmp_path, capsys):
        db = write_empty_db(tmp_path / "empty.json")
        assert main(["los-prob", "--db", db, "--tx", "0,0,10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "radius_m,p_los,valid"
        assert len(lines) == 192
        assert lines[1] == "10,1,1"
        assert all(line.endswith(",1,1") for line in lines[1:])

    def test_output_file_matches_library(self, tmp_path):
        db = str(demo.scene_path("slab"))
        out = tmp_path / "curve.csv"
        assert main(["los-prob", "--db", db, "--tx", "0,0,10", "--out", str(out)]) == 0
        curve = los_probability.los_probability_curve(demo.load_scene("slab"), Point3(0.0, 0.0, 10.0))
        assert out.read_text() == los_probability.curve_to_csv(curve)
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_missing_output_directory_is_input_error(self, tmp_path, capsys):
        db = write_empty_db(tmp_path / "empty.json")
        out = str(tmp_path / "missing" / "curve.csv")
        assert main(["los-prob", "--db", db, "--tx", "0,0,10", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        db = write_empty_db(tmp_path / "empty.json")

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        out = str(tmp_path / "curve.csv")
        assert main(["los-prob", "--db", db, "--tx", "0,0,10", "--out", out]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["empty.json"]

    def test_tx_inside_building_is_input_error(self, capsys):
        db = str(demo.scene_path("slab"))
        assert main(["los-prob", "--db", db, "--tx", "15,0,1.5"]) == 2
        err = capsys.readouterr().err
        assert "tx position invalid" in err
        assert "building 0" in err

    def test_missing_db_file(self, tmp_path, capsys):
        assert main(["los-prob", "--db", str(tmp_path / "nope.json"), "--tx", "0,0,10"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_db(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["los-prob", "--db", str(bad), "--tx", "0,0,10"]) == 2

    def test_bad_tx_string(self, tmp_path):
        db = write_empty_db(tmp_path / "empty.json")
        assert main(["los-prob", "--db", db, "--tx", "1,2"]) == 2

    def test_oversized_inputs_are_input_errors(self, tmp_path, capsys):
        db = write_empty_db(tmp_path / "empty.json")
        assert main(["los-prob", "--db", db, "--tx", "0,0,10", "--step", "1e-9"]) == 2
        assert "more than 1000000 points" in capsys.readouterr().err
        assert main(["los-prob", "--db", db, "--tx", "0,0,10", "--n-points", "2000000"]) == 2
        assert "n_points" in capsys.readouterr().err

    @pytest.mark.parametrize("height", ["nan", "inf", "-inf"])
    def test_non_finite_rx_height_is_input_error(self, height, capsys):
        db = str(demo.scene_path("tower"))
        tx = ",".join(str(v) for v in demo.tx_site("tower").position.to_array())
        assert main(["los-prob", "--db", db, "--tx", tx, f"--rx-height={height}"]) == 2
        assert "rx_height_m must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--tx=0,0,-3"], "tx z must be >= 0"),
        (["--tx=0,0,17", "--rx-height=-5"], "rx_height_m must be >= 0"),
    ])
    def test_below_ground_is_input_error(self, args, message, capsys):
        db = str(demo.scene_path("tower"))
        assert main(["los-prob", "--db", db, *args]) == 2
        assert message in capsys.readouterr().err

    def test_ground_level_receivers_allowed(self, capsys):
        db = str(demo.scene_path("slab"))
        assert main(["los-prob", "--db", db, "--tx", "0,0,7", "--rx-height=0", "--rmax", "20"]) == 0
        assert capsys.readouterr().out.startswith("radius_m,p_los,valid\n")


class TestFitPlos:
    def test_round_trip(self, tmp_path, capsys):
        curve = synth_curve_csv(tmp_path / "curve.csv")
        assert main(["fit-plos", curve]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_bp_m"] == 27.0
        assert doc["alpha_m"] == 71.0
        assert doc["squared"] is True
        assert doc["mse"] < 1e-10

    def test_multiple_curves_give_array(self, tmp_path, capsys):
        a = synth_curve_csv(tmp_path / "a.csv")
        b = synth_curve_csv(tmp_path / "b.csv", los_probability.LosProbParams(36.0, 71.0))
        assert main(["fit-plos", a, b]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["d_bp_m"] for d in docs] == [27.0, 36.0]

    def test_mean_flag_collapses_to_one_fit(self, tmp_path, capsys):
        a = synth_curve_csv(tmp_path / "a.csv")
        b = synth_curve_csv(tmp_path / "b.csv")
        assert main(["fit-plos", a, b, "--mean"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_bp_m"] == 27.0

    def test_malformed_curve(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("radius_m,p_los,valid\nten,0.5,1\n")
        assert main(["fit-plos", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_mean_of_mismatched_grids_is_input_error(self, tmp_path, capsys):
        a = synth_curve_csv(tmp_path / "a.csv")
        b = tmp_path / "b.csv"
        b.write_text("radius_m,p_los,valid\n10,1,1\n20,0.5,1\n")
        assert main(["fit-plos", a, str(b), "--mean"]) == 2
        assert "mismatched radius grid" in capsys.readouterr().err

    def test_too_few_valid_points_is_numerical_error(self, tmp_path, capsys):
        sparse = tmp_path / "sparse.csv"
        sparse.write_text("radius_m,p_los,valid\n10,1,1\n20,nan,0\n")
        assert main(["fit-plos", str(sparse)]) == 1
        assert "at least 2 valid" in capsys.readouterr().err

    def test_too_many_radii_is_input_error(self, tmp_path, monkeypatch, capsys):
        curve = synth_curve_csv(tmp_path / "curve.csv")
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 190)
        assert main(["fit-plos", curve]) == 2
        assert "between 1 and 190 radii" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["0", "-5"])
    def test_non_positive_radius_is_input_error(self, tmp_path, capsys, radius):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"radius_m,p_los,valid\n{radius},1,1\n10,0.5,1\n20,0.25,1\n")
        assert main(["fit-plos", str(bad)]) == 2
        assert "positive and finite" in capsys.readouterr().err


class TestPathloss:
    def test_preset_single_row(self, capsys):
        argv = ["pathloss", "--preset", "28GHz-NYC", "--rmin", "100", "--rmax", "100"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["d_m,p_los,mean_pl_db,sigma_db", lines[1]]
        d, p, mean, sigma = (float(v) for v in lines[1].split(","))
        model = pathloss.hybrid_from_preset("28GHz-NYC")
        assert d == 100.0
        assert np.isclose(p, los_probability.p_los_model(100.0, POOLED), rtol=1e-5)
        assert np.isclose(mean, pathloss.mean_pl_hybrid(model, 100.0), rtol=1e-5)
        assert np.isclose(sigma, pathloss.shadow_sigma_hybrid(model, 100.0), rtol=1e-5)

    def test_explicit_flags_match_preset(self, capsys):
        assert main(["pathloss", "--preset", "28GHz-NYC"]) == 0
        from_preset = capsys.readouterr().out
        argv = [
            "pathloss", "--frequency", "28e9",
            "--los-exponent", "2.1", "--los-sigma", "3.6",
            "--nlos-exponent", "3.4", "--nlos-sigma", "9.7",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == from_preset

    def test_preset_and_explicit_conflict(self, capsys):
        argv = ["pathloss", "--preset", "28GHz-NYC", "--frequency", "28e9"]
        assert main(argv) == 2
        assert "not both" in capsys.readouterr().err

    def test_incomplete_explicit_model(self, capsys):
        assert main(["pathloss", "--frequency", "28e9"]) == 2
        assert "--los-exponent" in capsys.readouterr().err

    def test_floating_family_needs_line_parameters(self, capsys):
        argv = [
            "pathloss", "--nlos", "floating", "--frequency", "73.5e9",
            "--los-exponent", "2.0", "--los-sigma", "4.8", "--nlos-sigma", "7.8",
        ]
        assert main(argv) == 2
        assert "--nlos-intercept" in capsys.readouterr().err

    def test_distance_below_reference_is_input_error(self, capsys):
        assert main(["pathloss", "--preset", "28GHz-NYC", "--rmin", "0.5"]) == 2
        assert "--rmin must be >= 1 m" in capsys.readouterr().err

    def test_oversized_grid_is_input_error(self, capsys):
        assert main(["pathloss", "--preset", "28GHz-NYC", "--step", "1e-9"]) == 2
        assert "more than 1000000 points" in capsys.readouterr().err


class TestFit:
    def close_in_csv(self, path, exponent=3.4, condition="NLOS"):
        model = pathloss.CloseInModel(28e9, exponent, 0.0)
        samples = [
            fitting.PathLossSample(float(d), float(pathloss.mean_pl_close_in(model, float(d))), condition)
            for d in range(30, 201, 10)
        ]
        path.write_text(fitting.samples_to_csv(samples))
        return str(path)

    def test_close_in_round_trip(self, tmp_path, capsys):
        csv = self.close_in_csv(tmp_path / "nlos.csv")
        argv = ["fit", csv, "--model", "close-in", "--condition", "NLOS", "--frequency", "28e9"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "close-in"
        # samples pass through 6-significant-digit CSV, so exact recovery stops there
        assert np.isclose(doc["exponent"], 3.4, atol=1e-4)
        assert doc["shadow_std_db"] < 1e-3

    def test_floating_round_trip(self, tmp_path, capsys):
        line = pathloss.FloatingInterceptModel(80.6, 2.9, 0.0)
        samples = [
            fitting.PathLossSample(float(d), float(line.intercept_db + 10.0 * line.slope * np.log10(d)), "NLOS")
            for d in range(30, 201, 10)
        ]
        csv = tmp_path / "nlos.csv"
        csv.write_text(fitting.samples_to_csv(samples))
        argv = ["fit", str(csv), "--model", "floating", "--condition", "NLOS"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "floating-intercept"
        assert np.isclose(doc["intercept_db"], 80.6, atol=1e-3)
        assert np.isclose(doc["slope"], 2.9, atol=1e-4)
        assert doc["valid_range_m"] == [30.0, 200.0]

    def test_close_in_needs_frequency(self, tmp_path, capsys):
        csv = self.close_in_csv(tmp_path / "nlos.csv")
        assert main(["fit", csv, "--model", "close-in", "--condition", "NLOS"]) == 2
        assert "--frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("frequency", ["0", "-28e9", "nan", "inf"])
    def test_bad_frequency_is_input_error(self, frequency, tmp_path, capsys):
        csv = self.close_in_csv(tmp_path / "nlos.csv")
        argv = ["fit", csv, "--model", "close-in", "--condition", "NLOS", f"--frequency={frequency}"]
        assert main(argv) == 2
        assert "--frequency must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("frequency", ["28e9", "nan"])
    def test_frequency_with_floating_is_input_error(self, frequency, tmp_path, capsys):
        csv = self.close_in_csv(tmp_path / "nlos.csv")
        argv = ["fit", csv, "--model", "floating", "--condition", "NLOS", f"--frequency={frequency}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--frequency applies to --model close-in only" in captured.err

    def test_condition_filter(self, tmp_path, capsys):
        los = pathloss.CloseInModel(28e9, 2.1, 0.0)
        nlos = pathloss.CloseInModel(28e9, 3.4, 0.0)
        samples = []
        for d in range(30, 201, 10):
            samples.append(fitting.PathLossSample(float(d), float(pathloss.mean_pl_close_in(los, float(d))), "LOS"))
            samples.append(fitting.PathLossSample(float(d), float(pathloss.mean_pl_close_in(nlos, float(d))), "NLOS"))
        csv = tmp_path / "mixed.csv"
        csv.write_text(fitting.samples_to_csv(samples))
        argv = ["fit", str(csv), "--model", "close-in", "--condition", "LOS", "--frequency", "28e9"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.isclose(doc["exponent"], 2.1, atol=1e-4)

    def test_underdetermined_fit_is_numerical_error(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("d_m,pl_db,condition\n50,120,NLOS\n")
        argv = ["fit", str(csv), "--model", "close-in", "--condition", "NLOS", "--frequency", "28e9"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_samples_file(self, tmp_path, capsys):
        argv = ["fit", str(tmp_path / "nope.csv"), "--model", "floating", "--condition", "NLOS"]
        assert main(argv) == 2


class TestOutage:
    BASE = ["outage", "--preset", "28GHz-NYC", "--threshold", "130",
            "--rmin", "50", "--rmax", "150", "--step", "50"]

    def test_analytic_run(self, capsys):
        assert main(self.BASE) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "d_m,coverage,outage"
        assert len(lines) == 4
        for line in lines[1:]:
            d, coverage, outage = (float(v) for v in line.split(","))
            assert np.isclose(coverage + outage, 1.0, atol=1e-6)

    def test_deterministic_repeat(self, capsys):
        assert main(self.BASE) == 0
        first = capsys.readouterr().out
        assert main(self.BASE) == 0
        assert capsys.readouterr().out == first

    def test_monte_carlo_requires_seed(self, capsys):
        assert main(self.BASE + ["--monte-carlo", "1000"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_monte_carlo_column(self, capsys):
        argv = self.BASE + ["--monte-carlo", "20000", "--seed", "9"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "d_m,coverage,outage,outage_mc"
        for line in lines[1:]:
            _, _, outage, outage_mc = (float(v) for v in line.split(","))
            assert abs(outage - outage_mc) < 0.02, line

    def test_seeded_runs_byte_identical(self, tmp_path):
        argv = self.BASE + ["--monte-carlo", "5000", "--seed", "123"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"d_m,coverage,outage,outage_mc\n")

    def test_monte_carlo_draw_order(self, capsys):
        # one sample_pl call per distance, in grid order, on one generator
        assert main(self.BASE + ["--monte-carlo", "1000", "--seed", "3"]) == 0
        model = pathloss.hybrid_from_preset("28GHz-NYC")
        spec = link_analysis.OutageSpec(130.0)
        rng = np.random.default_rng(3)
        lines = ["d_m,coverage,outage,outage_mc"]
        for d in (50.0, 100.0, 150.0):
            outage = link_analysis.outage_probability(model, d, spec)
            mc = np.mean(pathloss.sample_pl(model, d, rng, size=1000) > 130.0)
            lines.append(",".join(format(v, ".6g") for v in (d, 1.0 - outage, outage, mc)))
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    # sha256 of the stdout of `outage --preset P --nlos N --threshold 130
    # --monte-carlo 100000 --seed 7` on the default grid, the README's run
    @pytest.mark.parametrize("preset,nlos,digest", [
        ("28GHz-NYC", "close-in", "47f908f89d56db3034300f87721c1a0506b2d50310e389ba8b9644fc96035b3b"),
        ("28GHz-NYC", "floating", "3984a2004a035c3210971e3aa533d6b3f5062281dd54150fc59cbeb9f214ee23"),
        ("73GHz-NYC", "close-in", "736226cd167cf5264baeb8f6320eb4c409f1f616b5c7bdec43444771df178a1e"),
        ("73GHz-NYC", "floating", "06dd3827506e9ef0d2d87f1e66a7bf267239e00bffad5d73b47228c66b356c7e"),
    ], ids=["28GHz-close-in", "28GHz-floating", "73GHz-close-in", "73GHz-floating"])
    def test_pinned_monte_carlo_bytes(self, preset, nlos, digest, capsys):
        argv = ["outage", "--preset", preset, "--nlos", nlos, "--threshold", "130",
                "--monte-carlo", "100000", "--seed", "7"]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("extra", [["--monte-carlo", "10"], []])
    def test_negative_seed_is_input_error(self, extra, capsys):
        assert main(self.BASE + extra + ["--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_nonpositive_draw_count(self, capsys):
        assert main(self.BASE + ["--monte-carlo", "0", "--seed", "1"]) == 2

    @pytest.mark.parametrize("count", [los_probability.MAX_GRID_POINTS + 1, 10**12])
    def test_draw_count_capped_before_sampling(self, count, capsys):
        assert main(self.BASE + ["--monte-carlo", str(count), "--seed", "1"]) == 2
        assert "between 1 and 1000000" in capsys.readouterr().err

    def test_distance_below_reference_is_input_error(self, capsys):
        assert main(["outage", "--preset", "28GHz-NYC", "--threshold", "130", "--rmin", "0.5"]) == 2
        assert "--rmin must be >= 1 m" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "mmwpl", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "usage:" in result.stdout
        for name in ("los-prob", "fit-plos", "pathloss", "fit", "outage"):
            assert name in result.stdout

    def test_unknown_subcommand(self):
        result = subprocess.run(
            [sys.executable, "-m", "mmwpl", "frobnicate"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
