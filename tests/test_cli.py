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

from mmwpl import demo, los_probability, pathloss
from mmwpl.cli import main
from mmwpl.geometry import MAX_INPUT_BYTES, Point3

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


def close_in_csv(path):
    """NLOS samples of a 28 GHz close-in model with exponent 3.4 at 30, 40, ..., 200 m."""
    model = pathloss.CloseInModel(28e9, 3.4, 0.0)
    samples = [
        pathloss.PathLossSample(float(d), float(pathloss.mean_pl_close_in(model, float(d))), "NLOS")
        for d in range(30, 201, 10)
    ]
    path.write_text(pathloss.samples_to_csv(samples))
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

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        db = write_empty_db(tmp_path / "empty.json")

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        out = str(tmp_path / "curve.csv")
        assert main(["los-prob", "--db", db, "--tx", "0,0,10", "--out", out]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["empty.json"]


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

    def test_too_many_radii_is_input_error(self, tmp_path, monkeypatch, capsys):
        curve = synth_curve_csv(tmp_path / "curve.csv")
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 190)
        assert main(["fit-plos", curve]) == 2
        assert capsys.readouterr().err == f"error: {curve}: curve CSV must hold at most 190 rows, got 191\n"


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


class TestFit:
    def test_close_in_round_trip(self, tmp_path, capsys):
        csv = close_in_csv(tmp_path / "nlos.csv")
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
            pathloss.PathLossSample(float(d), float(line.intercept_db + 10.0 * line.slope * np.log10(d)), "NLOS")
            for d in range(30, 201, 10)
        ]
        csv = tmp_path / "nlos.csv"
        csv.write_text(pathloss.samples_to_csv(samples))
        argv = ["fit", str(csv), "--model", "floating", "--condition", "NLOS"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "floating-intercept"
        assert np.isclose(doc["intercept_db"], 80.6, atol=1e-3)
        assert np.isclose(doc["slope"], 2.9, atol=1e-4)
        assert doc["valid_range_m"] == [30.0, 200.0]

    def test_condition_filter(self, tmp_path, capsys):
        los = pathloss.CloseInModel(28e9, 2.1, 0.0)
        nlos = pathloss.CloseInModel(28e9, 3.4, 0.0)
        samples = []
        for d in range(30, 201, 10):
            samples.append(pathloss.PathLossSample(float(d), float(pathloss.mean_pl_close_in(los, float(d))), "LOS"))
            samples.append(pathloss.PathLossSample(float(d), float(pathloss.mean_pl_close_in(nlos, float(d))), "NLOS"))
        csv = tmp_path / "mixed.csv"
        csv.write_text(pathloss.samples_to_csv(samples))
        argv = ["fit", str(csv), "--model", "close-in", "--condition", "LOS", "--frequency", "28e9"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.isclose(doc["exponent"], 2.1, atol=1e-4)

    def test_too_many_rows_is_input_error(self, tmp_path, monkeypatch, capsys):
        csv = close_in_csv(tmp_path / "nlos.csv")  # 18 rows
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 17)
        assert main(["fit", csv, "--model", "floating", "--condition", "NLOS"]) == 2
        assert capsys.readouterr().err == f"error: {csv}: samples CSV must hold at most 17 rows, got 18\n"

    @pytest.mark.parametrize("name", [
        "fit-nlos-frequency-zero", "fit-nlos-frequency-negative", "fit-nlos-frequency-nan", "fit-nlos-frequency-inf",
    ], ids=["0", "-28e9", "nan", "inf"])
    def test_bad_frequency_is_input_error(self, name, tmp_path, capsys):
        # the contract row's argv with --out: exit 2 and the row's error line, and no file is written
        argv, _, message, _ = ROWS[name]
        write_contract_inputs(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        assert main([a.format(tmp=tmp_path) for a in argv.split()] + ["--out", str(out / "fit.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []


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
        spec = pathloss.OutageSpec(130.0)
        rng = np.random.default_rng(3)
        lines = ["d_m,coverage,outage,outage_mc"]
        for d in (50.0, 100.0, 150.0):
            outage = pathloss.outage_probability(model, d, spec)
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


def write_contract_inputs(tmp_path):
    """The input files of the CLI contract table below."""
    write_empty_db(tmp_path / "empty.json")
    (tmp_path / "bad.json").write_text("{not json")
    huge = "1" + "0" * 400  # an integer literal beyond float range
    (tmp_path / "huge-corner.json").write_text(f'{{"name": "h", "buildings": [{{"min": [0, 0, 0], "max": [{huge}, 1, 1]}}]}}')
    (tmp_path / "huge-origin.json").write_text(f'{{"name": "h", "origin": {{"lat": {huge}, "lon": 0}}, "buildings": []}}')
    (tmp_path / "bool-origin.json").write_text('{"name": "b", "origin": {"lat": true, "lon": false}, "buildings": []}')
    (tmp_path / "subdir").mkdir(exist_ok=True)
    with open(tmp_path / "oversized", "wb") as f:  # sparse: no byte of it is written
        f.truncate(MAX_INPUT_BYTES + 1)
    synth_curve_csv(tmp_path / "curve.csv")
    synth_curve_csv(tmp_path / "curve36.csv", los_probability.LosProbParams(36.0, 71.0))
    (tmp_path / "bad.csv").write_text("radius_m,p_los,valid\nten,0.5,1\n")
    (tmp_path / "short.csv").write_text("radius_m,p_los,valid\n10,1,1\n20,0.5,1\n")
    (tmp_path / "sparse.csv").write_text("radius_m,p_los,valid\n10,1,1\n20,nan,0\n")
    for name, radius in (("zero-radius", 0), ("negative-radius", -5)):
        (tmp_path / f"{name}.csv").write_text(f"radius_m,p_los,valid\n{radius},1,1\n10,0.5,1\n20,0.25,1\n")
    los = pathloss.CloseInModel(28e9, 2.1, 0.0)
    nlos = pathloss.FloatingInterceptModel(80.6, 2.9, 0.0)
    samples = []
    for k, d in enumerate(range(30, 201, 10)):
        ripple = 2.0 * (-1) ** k
        samples.append(pathloss.PathLossSample(float(d), pathloss.mean_pl_close_in(los, float(d)) + ripple, "LOS"))
        samples.append(pathloss.PathLossSample(float(d), pathloss.mean_pl_floating(nlos, float(d))[0] - ripple, "NLOS"))
    (tmp_path / "samples.csv").write_text(pathloss.samples_to_csv(samples))
    close_in_csv(tmp_path / "nlos.csv")
    (tmp_path / "short-distance.csv").write_text("d_m,pl_db,condition\n0.5,120,NLOS\n")
    (tmp_path / "one.csv").write_text("d_m,pl_db,condition\n50,120,NLOS\n")
    (tmp_path / "coincident.csv").write_text("d_m,pl_db,condition\n50,120,NLOS\n50,121,NLOS\n")
    (tmp_path / "reference.csv").write_text("d_m,pl_db,condition\n1,60,NLOS\n1,61,NLOS\n")
    (tmp_path / "overflow.csv").write_text("d_m,pl_db,condition\n10,1e200,NLOS\n20,-1e200,NLOS\n30,1e200,NLOS\n")


# The CLI contract: argv -> exit code, the one `error:` line on stderr (None
# for none; the temp directory reads <tmp>) and the sha256 of stdout.  Every
# input (2) and numerical (1) exit the CLI can reach is here at least once;
# `{scenes}` is the bundled scene directory.
EMPTY = hashlib.sha256(b"").hexdigest()

CONTRACT = [
    ("los-prob-empty-scene", "los-prob --db {tmp}/empty.json --tx 0,0,10",
     0, None, "ee0c199751764c32795057f81a7d95240354c120b07f16f82bf893a9a5a3b491"),
    ("los-prob-slab", "los-prob --db {scenes}/slab.json --tx 0,0,10",
     0, None, "ac974e72b4a394046d81efa668a0022c169547f64a8f75232feab439d1a4bdf4"),
    ("los-prob-tower-interior-nlos", "los-prob --db {scenes}/tower.json --tx 0,0,17 --rmax 60 --n-points 16 --interior-nlos",
     0, None, "6f1b5ce4ec6a4ddf8d1e822f44d5d90ed7d3a3b745c060b2e28cc5d778982ac0"),
    ("los-prob-ground-level-receivers", "los-prob --db {scenes}/slab.json --tx 0,0,7 --rx-height=0 --rmax 20",
     0, None, "c94f7264781fcc8047cd99d2a384ee73086908167129c821029f20a57bb6b97a"),
    ("los-prob-out", "los-prob --db {tmp}/empty.json --tx 0,0,10 --out {tmp}/curve-out.csv",
     0, None, EMPTY),
    ("los-prob-out-missing-dir", "los-prob --db {tmp}/empty.json --tx 0,0,10 --out {tmp}/missing/curve.csv",
     2, "cannot write <tmp>/missing/curve.csv: No such file or directory", EMPTY),
    ("los-prob-missing-db", "los-prob --db {tmp}/nope.json --tx 0,0,10",
     2, "[Errno 2] No such file or directory: '<tmp>/nope.json'", EMPTY),
    ("los-prob-db-directory", "los-prob --db {tmp}/subdir --tx 0,0,10",
     2, "[Errno 21] Is a directory: '<tmp>/subdir'", EMPTY),
    ("los-prob-db-over-byte-cap", "los-prob --db {tmp}/oversized --tx 0,0,10",
     2, "<tmp>/oversized holds 33554433 bytes; an input file may hold at most 33554432", EMPTY),
    ("los-prob-malformed-db", "los-prob --db {tmp}/bad.json --tx 0,0,10",
     2, "invalid building DB document: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)", EMPTY),
    ("los-prob-db-huge-corner", "los-prob --db {tmp}/huge-corner.json --tx 0,0,10",
     2, "building 0 'max': int too large to convert to float", EMPTY),
    ("los-prob-db-huge-origin", "los-prob --db {tmp}/huge-origin.json --tx 0,0,10",
     2, "'origin': int too large to convert to float", EMPTY),
    ("los-prob-db-bool-origin", "los-prob --db {tmp}/bool-origin.json --tx 0,0,10",
     2, "'origin' must be an object with numeric lat/lon", EMPTY),
    ("los-prob-tx-two-parts", "los-prob --db {tmp}/empty.json --tx 1,2",
     2, "expected x,y,z with three components, got '1,2'", EMPTY),
    ("los-prob-tx-not-numbers", "los-prob --db {tmp}/empty.json --tx a,b,c",
     2, "could not convert string to float: 'a'", EMPTY),
    ("los-prob-tx-nan", "los-prob --db {tmp}/empty.json --tx nan,0,10",
     2, "coordinates must be finite numbers, got nan", EMPTY),
    ("los-prob-tx-inside-building", "los-prob --db {scenes}/slab.json --tx 15,0,1.5",
     2, "tx position invalid: point (15, 0, 1.5) is strictly inside building 0", EMPTY),
    ("los-prob-tx-below-ground", "los-prob --db {scenes}/tower.json --tx=0,0,-3",
     2, "tx z must be >= 0 (ground level), got -3", EMPTY),
    # coordinates, radii and heights past 1e7 m fail before any receiver is built: the tracer's margins hold for
    # receivers within 2e7 m of the origin, and a curve at 1e150 m read p_los 0.625 where is_los gives 0.125
    ("los-prob-tx-past-bound", "los-prob --db {tmp}/empty.json --tx=-2e7,0,10",
     2, "tx coordinates must lie within 1e+07 m of the origin on each axis, got (-2e+07, 0, 10)", EMPTY),
    ("los-prob-tx-height-past-bound", "los-prob --db {scenes}/slab.json --tx 0,0,1e300",
     2, "tx coordinates must lie within 1e+07 m of the origin on each axis, got (0, 0, 1e+300)", EMPTY),
    ("los-prob-radius-past-bound", "los-prob --db {scenes}/slab.json --tx 0,0,7 --rmin 1e150 --rmax 1e150 --n-points 8",
     2, "radii must be at most 1e+07 m, got 1e+150", EMPTY),
    ("los-prob-rx-height-past-bound", "los-prob --db {tmp}/empty.json --tx 0,0,10 --rx-height 2e7",
     2, "rx_height_m must be at most 1e+07 m, got 2e+07", EMPTY),
    ("los-prob-n-points-3", "los-prob --db {tmp}/empty.json --tx 0,0,10 --n-points 3",
     2, "n_points must be between 4 and 1000000, got 3", EMPTY),
    ("los-prob-n-points-over-cap", "los-prob --db {tmp}/empty.json --tx 0,0,10 --n-points 2000000",
     2, "n_points must be between 4 and 1000000, got 2000000", EMPTY),
    ("los-prob-step-tiny", "los-prob --db {tmp}/empty.json --tx 0,0,10 --step 1e-9",
     2, "grid of 10 to 200 m in 1e-09 m steps has more than 1000000 points", EMPTY),
    ("los-prob-rx-height-nan", "los-prob --db {tmp}/empty.json --tx 0,0,10 --rx-height=nan",
     2, "rx_height_m must be finite, got nan", EMPTY),
    ("los-prob-rx-height-inf", "los-prob --db {tmp}/empty.json --tx 0,0,10 --rx-height=inf",
     2, "rx_height_m must be finite, got inf", EMPTY),
    ("los-prob-rx-height-minus-inf", "los-prob --db {tmp}/empty.json --tx 0,0,10 --rx-height=-inf",
     2, "rx_height_m must be finite, got -inf", EMPTY),
    ("los-prob-rx-height-negative", "los-prob --db {tmp}/empty.json --tx 0,0,10 --rx-height=-5",
     2, "rx_height_m must be >= 0 (ground level), got -5", EMPTY),
    ("los-prob-tower-rx-height-nan", "los-prob --db {scenes}/tower.json --tx 0.0,0.0,17.0 --rx-height=nan",
     2, "rx_height_m must be finite, got nan", EMPTY),
    ("los-prob-tower-rx-height-inf", "los-prob --db {scenes}/tower.json --tx 0.0,0.0,17.0 --rx-height=inf",
     2, "rx_height_m must be finite, got inf", EMPTY),
    ("los-prob-tower-rx-height-minus-inf", "los-prob --db {scenes}/tower.json --tx 0.0,0.0,17.0 --rx-height=-inf",
     2, "rx_height_m must be finite, got -inf", EMPTY),
    ("los-prob-tower-rx-height-negative", "los-prob --db {scenes}/tower.json --tx=0,0,17 --rx-height=-5",
     2, "rx_height_m must be >= 0 (ground level), got -5", EMPTY),
    ("los-prob-rmax-below-rmin", "los-prob --db {tmp}/empty.json --tx 0,0,10 --rmin 50 --rmax 20",
     2, "r_max must be >= r_min, got r_min=50 r_max=20", EMPTY),
    ("los-prob-step-inf", "los-prob --db {tmp}/empty.json --tx 0,0,10 --step inf",
     2, "r_min and step must be finite, got r_min=10 step=inf", EMPTY),
    ("los-prob-rmin-inf", "los-prob --db {tmp}/empty.json --tx 0,0,10 --rmin inf --rmax inf",
     2, "r_min and step must be finite, got r_min=inf step=1", EMPTY),
    ("los-prob-radius-repeats", "los-prob --db {scenes}/slab.json --tx 0,0,7 --rmin 1000 --rmax 1000.01 --step 0.001",
     2, "radius 1000 m repeats at 6 significant digits; the curve CSV needs distinct radii", EMPTY),
    ("fit-plos-one", "fit-plos {tmp}/curve.csv",
     0, None, "f877f21ab21f30633c06efbc4f0416ecd5d670a297f1a3f6eb6fda0ea45f2270"),
    ("fit-plos-two", "fit-plos {tmp}/curve.csv {tmp}/curve36.csv",
     0, None, "e9339dd00c5b7245794f2b3ce6c90e56e530c3e0db215bd5ed0efe145c4a3062"),
    ("fit-plos-mean", "fit-plos {tmp}/curve.csv {tmp}/curve36.csv --mean",
     0, None, "ce0fb22323e6d818ea233b3de4437f275acbf9d15151317ec06829c0c59e841f"),
    ("fit-plos-out", "fit-plos {tmp}/curve.csv --out {tmp}/fit-out.json",
     0, None, EMPTY),
    ("fit-plos-out-missing-dir", "fit-plos {tmp}/curve.csv --out {tmp}/missing/fit.json",
     2, "cannot write <tmp>/missing/fit.json: No such file or directory", EMPTY),
    ("fit-plos-missing-file", "fit-plos {tmp}/curve.csv {tmp}/nope.csv",
     2, "<tmp>/nope.csv: [Errno 2] No such file or directory: '<tmp>/nope.csv'", EMPTY),
    ("fit-plos-directory", "fit-plos {tmp}/subdir",
     2, "<tmp>/subdir: [Errno 21] Is a directory: '<tmp>/subdir'", EMPTY),
    ("fit-plos-over-byte-cap", "fit-plos {tmp}/curve.csv {tmp}/oversized",
     2, "<tmp>/oversized: <tmp>/oversized holds 33554433 bytes; an input file may hold at most 33554432", EMPTY),
    ("fit-plos-malformed-row", "fit-plos {tmp}/bad.csv",
     2, "<tmp>/bad.csv: malformed curve CSV row: 'ten,0.5,1'", EMPTY),
    ("fit-plos-zero-radius", "fit-plos {tmp}/zero-radius.csv",
     2, "<tmp>/zero-radius.csv: radii must be positive and finite", EMPTY),
    ("fit-plos-negative-radius", "fit-plos {tmp}/negative-radius.csv",
     2, "<tmp>/negative-radius.csv: radii must be positive and finite", EMPTY),
    ("fit-plos-wrong-header", "fit-plos {tmp}/samples.csv",
     2, "<tmp>/samples.csv: curve CSV must start with header 'radius_m,p_los,valid'", EMPTY),
    ("fit-plos-mean-mismatched-grid", "fit-plos {tmp}/curve.csv {tmp}/short.csv --mean",
     2, "curve 1 has a mismatched radius grid", EMPTY),
    ("fit-plos-mean-no-valid-radius", "fit-plos {tmp}/sparse.csv {tmp}/sparse.csv --mean",
     2, "no valid curve at radius 20 m", EMPTY),
    ("fit-plos-too-few-valid", "fit-plos {tmp}/sparse.csv",
     1, "fit requires at least 2 valid curve points", EMPTY),
    ("pathloss-preset", "pathloss --preset 28GHz-NYC",
     0, None, "d71bb0c4f9e8d084e24397fb5931423a239012c211e0cb23c92e3a68d55598b8"),
    ("pathloss-preset-floating", "pathloss --preset 73GHz-NYC --nlos floating --dbp 36 --alpha 90 --rmin 1 --rmax 1000 --step 7",
     0, None, "16b83672117315e5c0db83e9508efc125a032a58d0a6ee08ec7bcd5de89dc0a0"),
    ("pathloss-explicit", "pathloss --frequency 28e9 --los-exponent 2.1 --los-sigma 3.6 --nlos-exponent 3.4 --nlos-sigma 9.7",
     0, None, "d71bb0c4f9e8d084e24397fb5931423a239012c211e0cb23c92e3a68d55598b8"),
    ("pathloss-explicit-floating", "pathloss --nlos floating --frequency 73.5e9 --los-exponent 2 --los-sigma 4.8 --nlos-intercept 80.6 --nlos-slope 2.9 --nlos-sigma 7.8",
     0, None, "f21791cc3a3e0dc3daa475b46bc30d9a3be0bd5c013b8272c2f235654ebdb9af"),
    ("pathloss-out", "pathloss --preset 28GHz-NYC --out {tmp}/pl-out.csv",
     0, None, EMPTY),
    ("pathloss-out-missing-dir", "pathloss --preset 28GHz-NYC --out {tmp}/missing/pl.csv",
     2, "cannot write <tmp>/missing/pl.csv: No such file or directory", EMPTY),
    ("pathloss-preset-and-explicit", "pathloss --preset 28GHz-NYC --frequency 28e9",
     2, "give either --preset or explicit model parameters, not both", EMPTY),
    ("pathloss-incomplete-explicit", "pathloss --frequency 28e9",
     2, "explicit models need --frequency, --los-exponent, --los-sigma and --nlos-sigma (or use --preset)", EMPTY),
    ("pathloss-close-in-no-exponent", "pathloss --frequency 28e9 --los-exponent 2.1 --los-sigma 3.6 --nlos-sigma 9.7",
     2, "--nlos close-in needs --nlos-exponent", EMPTY),
    ("pathloss-floating-no-line", "pathloss --nlos floating --frequency 73.5e9 --los-exponent 2 --los-sigma 4.8 --nlos-sigma 7.8",
     2, "--nlos floating needs --nlos-intercept and --nlos-slope", EMPTY),
    ("pathloss-floating-no-line-float-exponent", "pathloss --nlos floating --frequency 73.5e9 --los-exponent 2.0 --los-sigma 4.8 --nlos-sigma 7.8",
     2, "--nlos floating needs --nlos-intercept and --nlos-slope", EMPTY),
    ("pathloss-frequency-negative", "pathloss --frequency=-28e9 --los-exponent 2.1 --los-sigma 3.6 --nlos-exponent 3.4 --nlos-sigma 9.7",
     2, "frequency_hz must be positive, got -28000000000.0", EMPTY),
    ("pathloss-frequency-fspl-overflow", "pathloss --frequency 1e308 --los-exponent 2 --los-sigma 1 --nlos-exponent 3 --nlos-sigma 1",
     2, "frequency_hz is too large for a finite free-space path loss, got 1e+308", EMPTY),
    ("pathloss-sigma-negative", "pathloss --frequency 28e9 --los-exponent 2.1 --los-sigma=-1 --nlos-exponent 3.4 --nlos-sigma 9.7",
     2, "shadow_std_db must be >= 0, got -1.0", EMPTY),
    ("pathloss-floating-slope-inf", "pathloss --nlos floating --frequency 73.5e9 --los-exponent 2 --los-sigma 4.8 --nlos-intercept 80.6 --nlos-slope inf --nlos-sigma 7.8",
     2, "intercept_db and slope must be finite", EMPTY),
    ("pathloss-alpha-nan", "pathloss --preset 28GHz-NYC --alpha nan",
     2, "alpha_m must be positive, got nan", EMPTY),
    ("pathloss-dbp-zero", "pathloss --preset 28GHz-NYC --dbp 0",
     2, "d_bp_m must be positive, got 0.0", EMPTY),
    ("pathloss-rmin-below-reference", "pathloss --preset 28GHz-NYC --rmin 0.5",
     2, "--rmin must be >= 1 m, got 0.5", EMPTY),
    ("pathloss-rmax-below-rmin", "pathloss --preset 28GHz-NYC --rmin 50 --rmax 20",
     2, "r_max must be >= r_min, got r_min=50 r_max=20", EMPTY),
    ("pathloss-step-zero", "pathloss --preset 28GHz-NYC --step 0",
     2, "step must be positive, got 0", EMPTY),
    ("pathloss-step-tiny", "pathloss --preset 28GHz-NYC --step 1e-9",
     2, "grid of 10 to 200 m in 1e-09 m steps has more than 1000000 points", EMPTY),
    ("pathloss-step-inf", "pathloss --preset 28GHz-NYC --step inf",
     2, "r_min and step must be finite, got r_min=10 step=inf", EMPTY),
    ("pathloss-mean-overflow", "pathloss --frequency 28e9 --los-exponent 1e308 --los-sigma 1 --nlos-exponent 3 --nlos-sigma 1 --rmin 1 --rmax 2",
     2, "mean path loss is not finite at 1 m", EMPTY),
    ("pathloss-sigma-overflow", "pathloss --frequency 28e9 --los-exponent 2.1 --los-sigma 1e200 --nlos-exponent 3.4 --nlos-sigma 9.7",
     0, None, "65b813729c438d56de7e9ae0e8f43b8186c55787c559f0836e765160d6dff5be"),
    # sigma_db 8.23783e-171: the branch spreads are never squared, so the spread does not underflow to 0
    ("pathloss-sigma-underflow", "pathloss --frequency 28e9 --los-exponent 2.1 --los-sigma 1e-170 --nlos-exponent 3.4 --nlos-sigma 1e-170 --rmin 100 --rmax 100",
     0, None, "524d97d4e8980ba1ea656f99346d4e3af2f143f373acf0c6436635b5abf99ce7"),
    ("fit-close-in", "fit {tmp}/samples.csv --model close-in --condition NLOS --frequency 28e9",
     0, None, "ecefd33078e89819036440eaad4d6a9d470bd93f328abf8baf23688782b89b18"),
    ("fit-close-in-los", "fit {tmp}/samples.csv --model close-in --condition LOS --frequency 28e9",
     0, None, "8610c6ebb8d707bad7e12c0427fe14d972249d280b62357323ca6b485d5d91e1"),
    ("fit-floating", "fit {tmp}/samples.csv --model floating --condition NLOS",
     0, None, "42465ea71acf6127dcd52e2ddb6c6aca4a4d3d0009b05a2c1040a3e610edee9b"),
    ("fit-out", "fit {tmp}/samples.csv --model floating --condition LOS --out {tmp}/fit-out.json",
     0, None, EMPTY),
    ("fit-out-missing-dir", "fit {tmp}/samples.csv --model floating --condition LOS --out {tmp}/missing/fit.json",
     2, "cannot write <tmp>/missing/fit.json: No such file or directory", EMPTY),
    ("fit-missing-file", "fit {tmp}/nope.csv --model floating --condition NLOS",
     2, "<tmp>/nope.csv: [Errno 2] No such file or directory: '<tmp>/nope.csv'", EMPTY),
    ("fit-over-byte-cap", "fit {tmp}/oversized --model floating --condition NLOS",
     2, "<tmp>/oversized: <tmp>/oversized holds 33554433 bytes; an input file may hold at most 33554432", EMPTY),
    ("fit-wrong-header", "fit {tmp}/curve.csv --model floating --condition NLOS",
     2, "<tmp>/curve.csv: samples CSV must start with header 'd_m,pl_db,condition'", EMPTY),
    ("fit-malformed-row", "fit {tmp}/short-distance.csv --model floating --condition NLOS",
     2, "<tmp>/short-distance.csv: malformed samples CSV row '0.5,120,NLOS': distance_m must be >= 1 m, got 0.5", EMPTY),
    ("fit-close-in-no-frequency", "fit {tmp}/samples.csv --model close-in --condition NLOS",
     2, "--model close-in needs --frequency", EMPTY),
    ("fit-frequency-nan", "fit {tmp}/samples.csv --model close-in --condition NLOS --frequency=nan",
     2, "--frequency must be positive and finite, got nan", EMPTY),
    ("fit-frequency-zero", "fit {tmp}/samples.csv --model close-in --condition NLOS --frequency=0",
     2, "--frequency must be positive and finite, got 0", EMPTY),
    ("fit-frequency-negative", "fit {tmp}/samples.csv --model close-in --condition NLOS --frequency=-28e9",
     2, "--frequency must be positive and finite, got -2.8e+10", EMPTY),
    ("fit-frequency-inf", "fit {tmp}/samples.csv --model close-in --condition NLOS --frequency=inf",
     2, "--frequency must be positive and finite, got inf", EMPTY),
    ("fit-frequency-fspl-overflow", "fit {tmp}/samples.csv --model close-in --condition NLOS --frequency 1e308",
     2, "frequency_hz is too large for a finite free-space path loss, got 1e+308", EMPTY),
    ("fit-frequency-with-floating", "fit {tmp}/samples.csv --model floating --condition NLOS --frequency 28e9",
     2, "--frequency applies to --model close-in only", EMPTY),
    ("fit-frequency-nan-with-floating", "fit {tmp}/samples.csv --model floating --condition NLOS --frequency=nan",
     2, "--frequency applies to --model close-in only", EMPTY),
    ("fit-nlos-close-in-no-frequency", "fit {tmp}/nlos.csv --model close-in --condition NLOS",
     2, "--model close-in needs --frequency", EMPTY),
    ("fit-nlos-frequency-zero", "fit {tmp}/nlos.csv --model close-in --condition NLOS --frequency=0",
     2, "--frequency must be positive and finite, got 0", EMPTY),
    ("fit-nlos-frequency-negative", "fit {tmp}/nlos.csv --model close-in --condition NLOS --frequency=-28e9",
     2, "--frequency must be positive and finite, got -2.8e+10", EMPTY),
    ("fit-nlos-frequency-nan", "fit {tmp}/nlos.csv --model close-in --condition NLOS --frequency=nan",
     2, "--frequency must be positive and finite, got nan", EMPTY),
    ("fit-nlos-frequency-inf", "fit {tmp}/nlos.csv --model close-in --condition NLOS --frequency=inf",
     2, "--frequency must be positive and finite, got inf", EMPTY),
    ("fit-nlos-frequency-fspl-overflow", "fit {tmp}/nlos.csv --model close-in --condition NLOS --frequency 1e308",
     2, "frequency_hz is too large for a finite free-space path loss, got 1e+308", EMPTY),
    ("fit-nlos-frequency-with-floating", "fit {tmp}/nlos.csv --model floating --condition NLOS --frequency=28e9",
     2, "--frequency applies to --model close-in only", EMPTY),
    ("fit-nlos-frequency-nan-with-floating", "fit {tmp}/nlos.csv --model floating --condition NLOS --frequency=nan",
     2, "--frequency applies to --model close-in only", EMPTY),
    ("fit-one-sample", "fit {tmp}/one.csv --model close-in --condition NLOS --frequency 28e9",
     1, "fit requires at least 2 samples", EMPTY),
    ("fit-no-samples-of-condition", "fit {tmp}/one.csv --model floating --condition LOS",
     1, "fit requires at least 2 samples", EMPTY),
    ("fit-coincident-distances", "fit {tmp}/coincident.csv --model floating --condition NLOS",
     1, "all sample distances coincide; the design matrix is rank deficient", EMPTY),
    ("fit-all-at-reference", "fit {tmp}/reference.csv --model close-in --condition NLOS --frequency 28e9",
     1, "all distances equal the 1 m reference; exponent is undetermined", EMPTY),
    # the residual squares overflow: a fit left not finite is a numerical error, with no RuntimeWarning
    ("fit-floating-overflow", "fit {tmp}/overflow.csv --model floating --condition NLOS",
     1, "fitted parameters are not finite; the path loss values are too large to fit", EMPTY),
    ("fit-close-in-overflow", "fit {tmp}/overflow.csv --model close-in --condition NLOS --frequency 28e9",
     1, "fitted parameters are not finite; the path loss values are too large to fit", EMPTY),
    ("outage-analytic", "outage --preset 28GHz-NYC --threshold 130",
     0, None, "149f4d4b505e2480898ceebae23511b4b3d68e9ceda2256f900b0b5149b87523"),
    ("outage-floating-infinite-budget", "outage --preset 73GHz-NYC --nlos floating --threshold inf --rmax 50",
     0, None, "5110850f6033ef1908f5f61ac0bc062a8164d925f2650d184a627f60e1389eca"),
    ("outage-monte-carlo", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --monte-carlo 1000 --seed 3",
     0, None, "d513aea457f235cf1517df5fb3ea9f5f9ff9a5c58e063875b869213e7f009114"),
    ("outage-seed-without-monte-carlo", "outage --preset 73GHz-NYC --threshold 120 --seed 5 --rmax 40",
     0, None, "65e2d9c247ee48db77d0f243bdb3cc4499ed2034d8acf6dac2a9fe96e893fd7b"),
    ("outage-alpha-tiny", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --alpha 1e-320",
     0, None, "13efbceea046b9bd281137a498a1e9012c38dc76853308a41f2e22b486295a59"),
    ("outage-out", "outage --preset 28GHz-NYC --threshold 130 --out {tmp}/outage-out.csv",
     0, None, EMPTY),
    ("outage-out-missing-dir", "outage --preset 28GHz-NYC --threshold 130 --out {tmp}/missing/outage.csv",
     2, "cannot write <tmp>/missing/outage.csv: No such file or directory", EMPTY),
    ("outage-threshold-nan", "outage --preset 28GHz-NYC --threshold nan",
     2, "max_path_loss_db must not be NaN", EMPTY),
    ("outage-incomplete-explicit", "outage --frequency 28e9 --threshold 130",
     2, "explicit models need --frequency, --los-exponent, --los-sigma and --nlos-sigma (or use --preset)", EMPTY),
    ("outage-frequency-fspl-overflow", "outage --threshold 130 --frequency 1e308 --los-exponent 2 --los-sigma 1 --nlos-exponent 3 --nlos-sigma 1",
     2, "frequency_hz is too large for a finite free-space path loss, got 1e+308", EMPTY),
    ("outage-monte-carlo-no-seed", "outage --preset 28GHz-NYC --threshold 130 --monte-carlo 1000",
     2, "--monte-carlo requires --seed for reproducibility", EMPTY),
    ("outage-monte-carlo-zero", "outage --preset 28GHz-NYC --threshold 130 --monte-carlo 0 --seed 1",
     2, "--monte-carlo draw count must be between 1 and 1000000, got 0", EMPTY),
    ("outage-monte-carlo-over-cap", "outage --preset 28GHz-NYC --threshold 130 --monte-carlo 1000001 --seed 1",
     2, "--monte-carlo draw count must be between 1 and 1000000, got 1000001", EMPTY),
    ("outage-monte-carlo-far-over-cap", "outage --preset 28GHz-NYC --threshold 130 --monte-carlo 1000000000000 --seed 1",
     2, "--monte-carlo draw count must be between 1 and 1000000, got 1000000000000", EMPTY),
    ("outage-seed-negative", "outage --preset 28GHz-NYC --threshold 130 --seed -1",
     2, "--seed must be >= 0, got -1", EMPTY),
    ("outage-monte-carlo-seed-negative", "outage --preset 28GHz-NYC --threshold 130 --monte-carlo 10 --seed -1",
     2, "--seed must be >= 0, got -1", EMPTY),
    ("outage-rmin-below-reference", "outage --preset 28GHz-NYC --threshold 130 --rmin 0.5",
     2, "--rmin must be >= 1 m, got 0.5", EMPTY),
    ("outage-step-tiny", "outage --preset 28GHz-NYC --threshold 130 --step 1e-9",
     2, "grid of 10 to 200 m in 1e-09 m steps has more than 1000000 points", EMPTY),
    ("outage-step-inf", "outage --preset 28GHz-NYC --threshold 130 --step inf",
     2, "r_min and step must be finite, got r_min=10 step=inf", EMPTY),
    ("outage-sigma-overflow", "outage --threshold 130 --frequency 28e9 --los-exponent 2.1 --los-sigma 1e200 --nlos-exponent 3.4 --nlos-sigma 9.7 --monte-carlo 10 --seed 1",
     0, None, "077d9117d47bd45d40ee70e57bba07b3fe13aff8d71a40da5184b65f06928e58"),
    # (threshold - mean) / sigma overflows to inf: a certain outcome, not a warning
    ("outage-z-overflow", "outage --threshold 1e300 --frequency 28e9 --los-exponent 2.1 --los-sigma 1e-10 --nlos-exponent 3.4 --nlos-sigma 1e-10 --rmin 100 --rmax 100",
     0, None, "6a154c91a7de670c832630624f649899235933336df0e2bc82c379286a82f290"),
    ("outage-sigma-subnormal", "outage --threshold 130 --frequency 28e9 --los-exponent 2.1 --los-sigma 1e-320 --nlos-exponent 3.4 --nlos-sigma 1e-320 --rmin 100 --rmax 100",
     0, None, "6a154c91a7de670c832630624f649899235933336df0e2bc82c379286a82f290"),
    # on the 50, 100, 150 m grid
    ("outage-grid-monte-carlo-no-seed", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --monte-carlo 1000",
     2, "--monte-carlo requires --seed for reproducibility", EMPTY),
    ("outage-grid-monte-carlo-zero", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --monte-carlo 0 --seed 1",
     2, "--monte-carlo draw count must be between 1 and 1000000, got 0", EMPTY),
    ("outage-grid-monte-carlo-over-cap", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --monte-carlo 1000001 --seed 1",
     2, "--monte-carlo draw count must be between 1 and 1000000, got 1000001", EMPTY),
    ("outage-grid-monte-carlo-far-over-cap", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --monte-carlo 1000000000000 --seed 1",
     2, "--monte-carlo draw count must be between 1 and 1000000, got 1000000000000", EMPTY),
    ("outage-grid-seed-negative", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --seed -1",
     2, "--seed must be >= 0, got -1", EMPTY),
    ("outage-grid-monte-carlo-seed-negative", "outage --preset 28GHz-NYC --threshold 130 --rmin 50 --rmax 150 --step 50 --monte-carlo 10 --seed -1",
     2, "--seed must be >= 0, got -1", EMPTY),
]


ROWS = {case[0]: case[1:] for case in CONTRACT}
assert len(ROWS) == len(CONTRACT), "CONTRACT row names must be unique"


def check_contract_row(name, tmp_path, capsys):
    """Run CONTRACT row ``name``: its exit code, its one stderr line and its stdout digest."""
    argv, code, message, digest = ROWS[name]
    write_contract_inputs(tmp_path)
    scenes = str(demo.scene_path("slab").parent)
    assert main([a.format(tmp=tmp_path, scenes=scenes) for a in argv.split()]) == code
    captured = capsys.readouterr()
    assert captured.err.replace(str(tmp_path), "<tmp>") == ("" if message is None else f"error: {message}\n")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", list(ROWS))
def test_cli_contract(name, tmp_path, capsys):
    check_contract_row(name, tmp_path, capsys)
