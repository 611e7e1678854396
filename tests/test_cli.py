import argparse
import hashlib
import inspect
import json

import numpy as np
import pytest

from qalloc import allocate, harness, modelio, nn, probes
from qalloc.cli import build_parser, main
from qalloc.nn import Dataset, Layer, Model
from qalloc.probes import LayerProfile


def save_rig(path):
    """Small dense model `m` + dataset `d` in `path`."""
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.3, 0.3, size=(12, 16)).astype(np.float32)
    w2 = rng.uniform(-0.3, 0.3, size=(16, 5)).astype(np.float32)
    model = Model((Layer("dense", w1), Layer("relu"), Layer("dense", w2)), (12,))
    inputs = rng.standard_normal((300, 12)).astype(np.float32)
    ds = Dataset(inputs, nn.classify_batch(nn.forward_batch(model, inputs)))
    modelio.save_model(model, path / "m")
    modelio.save_dataset(ds, path / "d")
    return path


@pytest.fixture()
def rig(tmp_path):
    """Small dense model + dataset + profile files on disk."""
    return save_rig(tmp_path)


def forbid_work(monkeypatch):
    """Make any forward, and the verification battery, fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(nn, "_forward", fail)
    monkeypatch.setattr(harness, "verify", fail)


def profiles_file(tmp_path, rows):
    """Profiles from (index, kind, s, t, p) rows, saved to profiles.json."""
    profiles = [LayerProfile(index=i, kind=k, s=s, t=t, p=p, noise_scale=0.1,
                             delta_acc=0.4, b_probe=10, weight_range=(-0.3, 0.3))
                for i, k, s, t, p in rows]
    return modelio.save_profiles(profiles, tmp_path / "profiles.json")


# the rig's weighted layers: dense 12x16 at index 0, dense 16x5 at index 2
RIG_ROWS = [(0, "dense", 192, 2.0, 3.0), (2, "dense", 80, 2.0, 3.0)]


class TestGenAndEvaluate:
    def test_gen_model_and_data_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["gen-model", "--out", out, "--seed", "3"]) == 0
        assert main(["gen-data", "--model", f"{out}/fixture", "--n", "40",
                     "--seed", "4", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "baseline accuracy 1.0" in captured.out
        assert (tmp_path / "run" / "fixture.model.json").exists()
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_gen_data_forwards_once(self, rig, tmp_path, monkeypatch, capsys):
        rows = []
        real = nn.forward_batch

        def spy(model, inputs, threads=1):
            rows.append(len(inputs))
            return real(model, inputs, threads=threads)

        # modelio imported forward_batch by name, so patch its binding too
        monkeypatch.setattr(nn, "forward_batch", spy)
        monkeypatch.setattr(modelio, "forward_batch", spy)
        assert main(["gen-data", "--model", str(rig / "m"), "--n", "30", "--threads", "3",
                     "--out", str(tmp_path)]) == 0
        assert rows == [30]
        assert "baseline accuracy 1.0" in capsys.readouterr().out

    def test_gen_data_threads_has_no_effect_and_says_so(self, rig, tmp_path, capsys):
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["gen-data", "--model", str(rig / "m"), "--n", "600",
                         "--threads", threads, "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.glob("data.dataset.*")})
        assert len(written[0]) == 2 and written[0] == written[1]
        with pytest.raises(SystemExit):
            main(["gen-data", "--help"])
        assert "no effect" in " ".join(capsys.readouterr().out.split())

    def test_evaluate_prints_accuracy(self, rig, capsys):
        assert main(["evaluate", "--model", str(rig / "m"), "--data", str(rig / "d")]) == 0
        assert "top1 1.0" in capsys.readouterr().out

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["evaluate", "--model", str(tmp_path / "nope"),
                     "--data", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestMargins:
    def test_prints_mean(self, rig, capsys):
        assert main(["margins", "--model", str(rig / "m"), "--data", str(rig / "d")]) == 0
        assert "mean margin power" in capsys.readouterr().out

    def test_empty_dataset_is_one_line_exit_1(self, rig, tmp_path, capsys):
        modelio.save_dataset(Dataset(np.zeros((0, 12), dtype=np.float32), []), tmp_path / "e")
        out = tmp_path / "out"
        assert main(["margins", "--model", str(rig / "m"), "--data", str(tmp_path / "e"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: margins need at least one sample\n"
        assert not (out / "margins.json").exists()


    @pytest.mark.parametrize("threads", [1, 2])
    def test_margins_json_holds_the_stats_of_the_run(self, rig, tmp_path, threads):
        out = tmp_path / "out"
        assert main(["margins", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--threads", str(threads), "--out", str(out)]) == 0
        doc = json.loads((out / "margins.json").read_text())
        model, dataset = modelio.load_model(rig / "m"), modelio.load_dataset(rig / "d")
        stats = probes.margin_stats(nn.forward_batch(model, dataset.inputs, threads=threads))
        assert list(doc) == ["format_version", "mean_r_star", "n", "counts", "bin_edges"]
        assert doc == {"format_version": modelio.FORMAT_VERSION,
                       "mean_r_star": stats.mean_r_star, "n": stats.n,
                       "counts": list(stats.counts), "bin_edges": list(stats.bin_edges)}


class TestAllocate:
    def test_closed_form_example(self, tmp_path, capsys):
        # equal p and t, s2 = 2*s1, b1=8 -> b = (8, 7.5)
        path = profiles_file(tmp_path, [(0, "dense", 100, 2.0, 3.0), (1, "dense", 200, 2.0, 3.0)])
        out = str(tmp_path / "out")
        assert main(["allocate", "--profiles", str(path), "--method", "adaptive",
                     "--b1", "8", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "b=(8, 7.5)" in stdout
        doc = json.loads((tmp_path / "out" / "allocation.json").read_text())
        assert doc["b_real"] == [8.0, 7.5]

    def test_merges_partial_profiles(self, rig, tmp_path, capsys):
        out = str(tmp_path / "cal")
        assert main(["estimate-t", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--delta-acc", "0.3", "--acc-tolerance", "0.02", "--out", out]) == 0
        assert main(["estimate-p", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--out", out]) == 0
        assert main(["allocate", "--profiles", f"{out}/profiles_t.json",
                     "--profiles", f"{out}/profiles_p.json",
                     "--b1", "8", "--out", out]) == 0
        doc = json.loads((tmp_path / "cal" / "allocation.json").read_text())
        assert len(doc["b_int"]) == 2

    def test_incomplete_profiles_rejected(self, rig, tmp_path, capsys):
        out = str(tmp_path / "cal")
        assert main(["estimate-p", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--out", out]) == 0
        assert main(["allocate", "--profiles", f"{out}/profiles_p.json",
                     "--b1", "8", "--out", out]) == 1
        assert "incomplete" in capsys.readouterr().err


    def test_equal_honours_fc_bits_like_sweep(self, tmp_path):
        from qalloc import harness

        rng = np.random.default_rng(1)
        model = Model((Layer("conv2d", rng.uniform(-1, 1, (3, 3, 1, 2)).astype(np.float32)),
                       Layer("relu"),
                       Layer("dense", rng.uniform(-1, 1, (18, 4)).astype(np.float32))), (5, 5, 1))
        inputs = rng.standard_normal((50, 5, 5, 1)).astype(np.float32)
        ds = Dataset(inputs, nn.classify_batch(nn.forward_batch(model, inputs)))
        path = profiles_file(tmp_path, [(0, "conv2d", 18, 2.0, 3.0), (2, "dense", 72, 2.0, 3.0)])
        assert main(["allocate", "--profiles", str(path), "--method", "equal", "--b1", "8",
                     "--fc-bits", "16", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "allocation.json").read_text())
        profiles, _ = modelio.load_profiles(path)
        point, = harness.sweep(model, ds, profiles, b1_values=[8], methods=("equal",),
                               fc_bits=16)["equal"]
        assert doc["b_int"] == list(point.allocation.b_int) == [8, 16]


class TestFlagRanges:
    def test_equal_with_fractional_b1_is_one_line_exit_1(self, tmp_path, capsys):
        path = profiles_file(tmp_path, [(0, "dense", 208, 2.0, 3.0), (1, "dense", 85, 2.0, 3.0)])
        assert main(["allocate", "--profiles", str(path), "--method", "equal", "--b1", "8.4",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "must be an integer in [2, 16], got 8.4" in err and err.count("\n") == 1
        assert not (tmp_path / "allocation.json").exists()

    @pytest.mark.parametrize("method", ["adaptive", "sqnr"])
    @pytest.mark.parametrize("b1", ["inf", "nan", "-inf"])
    def test_non_finite_b1_is_one_line_exit_1(self, tmp_path, capsys, method, b1):
        path = profiles_file(tmp_path, [(0, "dense", 208, 2.0, 3.0), (1, "dense", 85, 2.0, 3.0)])
        assert main(["allocate", "--profiles", str(path), "--method", method, f"--b1={b1}",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: anchor b1 must be finite, got {float(b1)}\n"
        assert not (tmp_path / "allocation.json").exists()

    @pytest.mark.parametrize("command", ["allocate", "sweep"])
    @pytest.mark.parametrize("fc_bits", ["1", "20"])
    def test_fc_bits_outside_range_rejected_before_loading(self, tmp_path, capsys, command,
                                                           fc_bits):
        # the inputs do not exist: the range error must come before any load
        missing = str(tmp_path / "missing")
        argv = {"allocate": ["allocate", "--method", "adaptive", "--b1", "8"],
                "sweep": ["sweep", "--model", missing, "--data", missing]}[command]
        assert main([*argv, "--profiles", missing, "--fc-bits", fc_bits,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --fc-bits must be an integer in [2, 16], got {fc_bits}")
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("last_n", ["0", "3"])
    def test_last_n_outside_weighted_layers_is_one_line_exit_1(self, rig, tmp_path, capsys,
                                                               last_n):
        assert main(["estimate-t", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--last-n", last_n, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: last_n must lie in 1..2") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["4:12:0", "4:12:-1", "12:4:1", "4:12", "4:x:1",
                                      "4:inf:1", "4:12:nan", "", "4,x", "nan", "4,inf"])
    def test_bad_b1_grid_is_one_line_exit_1(self, rig, tmp_path, capsys, grid):
        path = profiles_file(tmp_path, RIG_ROWS)
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--b1-grid", grid, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --b1-grid") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["nan", "4,inf", "4:x:1"])
    def test_bad_b1_grid_in_verify_is_one_line_exit_1_before_any_work(self, capsys,
                                                                      monkeypatch, grid):
        from qalloc import harness

        called = []
        monkeypatch.setattr(harness, "verify", lambda *args, **kwargs: called.append(1) or [])
        assert main(["verify", "--quick", "--n", "200", "--b1-grid", grid]) == 1
        # one line: the grid fails before the fixture is generated, which prints progress
        err = capsys.readouterr().err
        assert err.startswith("error: --b1-grid") and err.count("\n") == 1 and not called

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_one_line_exit_1(self, rig, capsys, threads):
        assert main(["evaluate", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--threads", threads]) == 1
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"

    @pytest.mark.parametrize("max_variants", ["0", "-1"])
    def test_max_variants_below_one_is_one_line_exit_1(self, rig, tmp_path, capsys,
                                                       max_variants):
        path = profiles_file(tmp_path, RIG_ROWS)
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--b1-grid", "6,7", "--max-variants", max_variants,
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == f"error: max_variants must be >= 1, got {max_variants}\n"
        assert not (tmp_path / "s" / "curve.csv").exists()

    def test_max_variants_below_one_without_adaptive_is_exit_1_before_any_forward(
            self, rig, tmp_path, capsys, monkeypatch):
        path = profiles_file(tmp_path, RIG_ROWS)

        def fail(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(nn, "_forward", fail)
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--b1-grid", "6,7", "--methods", "sqnr,equal",
                     "--max-variants", "0", "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == "error: max_variants must be >= 1, got 0\n"
        assert not (tmp_path / "s" / "curve.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-iters", "0", "max_iters must be >= 1, got 0"),
        ("--acc-tolerance", "-0.1", "acc_tolerance must be >= 0, got -0.1"),
        ("--delta-acc", "-0.1", "delta_acc must be > 0, got -0.1"),
        ("--delta-acc", "0", "delta_acc must be > 0, got 0.0"),
        ("--delta-acc", "nan", "delta_acc must be > 0, got nan"),
        ("--acc-tolerance", "inf", "acc_tolerance must be >= 0 and finite, got inf"),
        ("--delta-acc", "inf", "delta_acc must be > 0 and finite, got inf"),
        ("--last-n", "0", "last_n must lie in 1..2 (the weighted layer count), got 0"),
        ("--last-n", "3", "last_n must lie in 1..2 (the weighted layer count), got 3")],
        ids=["max-iters", "acc-tolerance", "delta-acc-negative", "delta-acc-zero",
             "delta-acc-nan", "acc-tolerance-inf", "delta-acc-inf", "last-n-0", "last-n-3"])
    def test_bad_probe_settings_are_one_line_exit_1_before_any_forward(
            self, rig, tmp_path, capsys, monkeypatch, flag, value, message):
        def fail(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(nn, "prefix_cache", fail)
        assert main(["estimate-t", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     flag, value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_b_probe_is_one_line_exit_1_before_any_forward(self, rig, tmp_path, capsys,
                                                               monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(nn, "prefix_cache", fail)
        assert main(["estimate-p", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--b-probe", "1", "--out", str(tmp_path / "p")]) == 1
        assert capsys.readouterr().err == "error: b_probe must be an integer in [2, 16], got 1\n"
        assert not (tmp_path / "p" / "profiles_p.json").exists()

    def test_valid_b1_grids_parse_as_before(self):
        from qalloc import harness
        from qalloc.cli import _parse_grid

        assert _parse_grid("6:10:1") == [6.0, 7.0, 8.0, 9.0, 10.0]
        assert _parse_grid("4:12:0.5") == harness.default_anchor_grid()
        assert _parse_grid("7:7:1") == [7.0]
        assert _parse_grid("5,6.5") == [5.0, 6.5]
        # the last anchor never passes hi
        assert _parse_grid("4:12:0.3")[-1] == pytest.approx(11.8)
        assert _parse_grid("4:5:0.6") == [4.0, 4.6]
        assert len(_parse_grid("4:12:0.1")) == 81
        assert _parse_grid(None) == harness.default_anchor_grid()


class TestCalibrationFront:
    def test_cli_and_library_calibrate_alike(self, rig, tmp_path):
        from qalloc import harness
        from qalloc.cli import _load_merged_profiles
        from qalloc.probes import ProbeConfig

        cal = tmp_path / "cal"
        for command in ("estimate-t", "estimate-p"):
            assert main([command, "--model", str(rig / "m"), "--data", str(rig / "d"),
                         "--out", str(cal)]) == 0
        merged = _load_merged_profiles([cal / "profiles_t.json", cal / "profiles_p.json"])
        model, dataset = modelio.load_model(rig / "m"), modelio.load_dataset(rig / "d")
        assert merged == harness.run_pipeline(model, dataset, ProbeConfig())
        _, meta_t = modelio.load_profiles(cal / "profiles_t.json")
        _, _, meta = probes.calibrate(model, dataset, ProbeConfig())
        assert list(meta_t.items()) == [*meta.items(), ("seed", 0)]


class TestEstimateTSummary:
    def test_default_fixture_summary_line(self, fixture_model, fixture_dataset, tmp_path, capsys):
        modelio.save_model(fixture_model, tmp_path / "fixture")
        modelio.save_dataset(fixture_dataset, tmp_path / "data")
        assert main(["estimate-t", "--model", str(tmp_path / "fixture"),
                     "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run")]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines()[1] == SUMMARY_191
        iters = [int(line.split("iters=")[1].split(")")[0]) for line in out.splitlines()]
        assert sum(iters) == 33

    def test_calibration_failure_is_one_error_line_and_no_files(self, fixture_model,
                                                                fixture_dataset, tmp_path,
                                                                capsys):
        # an exact drop target cannot be met in two iterations: the error names the layer and
        # the last iterate's exact drop, and no progress or summary line comes before it
        modelio.save_model(fixture_model, tmp_path / "fixture")
        modelio.save_dataset(fixture_dataset, tmp_path / "data")
        out = tmp_path / "D"
        assert main(["estimate-t", "--model", str(tmp_path / "fixture"),
                     "--data", str(tmp_path / "data"), "--acc-tolerance", "0",
                     "--max-iters", "2", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: layer 0: accuracy drop 0.8625 never reached "
                                           "target 0.5000 +/- 0.0 within bounds [1e-05, 1000.0] "
                                           "(2 iterations)\n")
        assert not out.exists()


    @pytest.mark.parametrize("tolerance", ["1", "0.5"])
    def test_a_band_that_holds_every_drop_is_one_line_exit_1(self, rig, tmp_path, capsys,
                                                            monkeypatch, tolerance):
        # on the rig (baseline accuracy 1, default target 0.5) any k would be accepted
        def fail(*args, **kwargs):
            raise AssertionError("an iterate ran")

        monkeypatch.setattr(probes, "_bisect", fail)
        out = tmp_path / "D"
        assert main(["estimate-t", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--acc-tolerance", tolerance, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: acc_tolerance {float(tolerance)} accepts "
                                           "every accuracy drop around target 0.5 (baseline "
                                           "accuracy 1.0)\n")
        assert not out.exists()

    def test_a_band_that_holds_no_reachable_drop_is_one_line_exit_1(self, tmp_path, capsys,
                                                                    monkeypatch):
        # at n = 51 the drops nearest the default target 0.5 are 25/51 and 26/51, both more
        # than the default tolerance 0.005 away
        assert main(["gen-model", "--out", str(tmp_path)]) == 0
        assert main(["gen-data", "--model", str(tmp_path / "fixture"), "--n", "51",
                     "--out", str(tmp_path / "d51")]) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise AssertionError("an iterate ran")

        monkeypatch.setattr(probes, "_bisect", fail)
        out = tmp_path / "D"
        assert main(["estimate-t", "--model", str(tmp_path / "fixture"),
                     "--data", str(tmp_path / "d51" / "data"), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: acc_tolerance 0.005 holds no reachable "
                                           "accuracy drop around target 0.5000: the drop moves "
                                           "in steps of 1/51\n")
        assert not out.exists()
        # an exact target, 25.5 of 51 rows correct, is no more reachable
        assert main(["estimate-t", "--model", str(tmp_path / "fixture"),
                     "--data", str(tmp_path / "d51" / "data"), "--acc-tolerance", "0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: acc_tolerance 0.0 holds no reachable "
                                           "accuracy drop around target 0.5000: the drop moves "
                                           "in steps of 1/51\n")
        assert not out.exists()


# dataset 191 (the default gen-data seed) at n = 2000, probe seed 0
SUMMARY_191 = "t search: 33 iterations, 12 decided early, 87.7% of full-forward rows"


class TestQuantizeEvaluate:
    def test_quantize_then_evaluate(self, rig, tmp_path, capsys):
        path = profiles_file(tmp_path, RIG_ROWS)
        out = str(tmp_path / "q")
        assert main(["allocate", "--profiles", str(path), "--method", "equal",
                     "--b1", "12", "--out", out]) == 0
        assert main(["quantize", "--model", str(rig / "m"),
                     "--allocation", f"{out}/allocation.json", "--out", out]) == 0
        assert main(["evaluate", "--model", f"{out}/quantized",
                     "--data", str(rig / "d")]) == 0
        top1 = float(capsys.readouterr().out.rsplit("top1 ", 1)[1].split()[0])
        assert top1 > 0.9


class TestSweepCompare:
    def test_sweep_is_byte_reproducible(self, rig, tmp_path):
        cal = str(tmp_path / "cal")
        assert main(["estimate-t", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--delta-acc", "0.3", "--acc-tolerance", "0.02", "--out", cal]) == 0
        assert main(["estimate-p", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--out", cal]) == 0
        args = ["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                "--profiles", f"{cal}/profiles_t.json", "--profiles", f"{cal}/profiles_p.json",
                "--b1-grid", "5:9:1", "--max-variants", "4"]
        assert main(args + ["--out", str(tmp_path / "s1")]) == 0
        assert main(args + ["--out", str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1" / "curve.csv").read_bytes()
        b = (tmp_path / "s2" / "curve.csv").read_bytes()
        assert a == b

        assert main(["compare", "--curves", str(tmp_path / "s1" / "curve.csv"),
                     "--out", str(tmp_path / "cmp")]) == 0
        doc = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert doc["candidate"] == "adaptive"

    def test_sweep_reports_its_work_on_one_stderr_line(self, rig, tmp_path, capsys):
        from qalloc import harness

        path = profiles_file(tmp_path, RIG_ROWS)
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--b1-grid", "5:8:0.5",
                     "--out", str(tmp_path / "s")]) == 0
        err = capsys.readouterr().err.splitlines()
        profiles, _ = modelio.load_profiles(path)
        curves = harness.sweep(modelio.load_model(rig / "m"), modelio.load_dataset(rig / "d"),
                               profiles, b1_values=[5 + 0.5 * i for i in range(7)])
        vectors = [p.allocation.b_int for pts in curves.values() for p in pts]
        first, second = harness.prefix_counts(vectors)
        assert len(set(vectors)) < len(vectors)
        assert err == [f"{len(vectors)} points, {len(set(vectors))} distinct vectors, "
                       f"segments {first}/{second}"]
        assert len(modelio.load_curve(tmp_path / "s" / "curve.csv")) == len(vectors)

    @pytest.mark.parametrize("size", [0, -5])
    def test_compare_size_below_one_is_one_line_exit_1(self, tmp_path, capsys, size):
        from qalloc.harness import CurvePoint
        pts = [CurvePoint("adaptive", 8.0, 0, 100, 100 / 8 / 2 ** 20, 0.5),
               CurvePoint("equal", 8.0, 0, size, size / 8 / 2 ** 20, 0.5)]
        modelio.save_curve(pts, tmp_path / "c.csv")
        assert main(["compare", "--curves", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: equal curve: size_bits must be >= 1, got {size}\n"
        assert not (tmp_path / "comparison.json").exists()

    def test_sweep_unknown_method_is_exit_1_before_any_forward(self, rig, tmp_path, capsys,
                                                              monkeypatch):
        path = profiles_file(tmp_path, RIG_ROWS)
        forbid_work(monkeypatch)
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--methods", "adaptive,foo",
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == "error: unknown method 'foo'\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("rows,message", [
        ([(0, "dense", 7, 2.0, 3.0), (2, "dense", 7, 2.0, 3.0)],
         "profile 0 is layer 0 (dense, s=7), but the model's weighted layer 0 is layer 0 "
         "(dense, s=192)"),
        ([(0, "dense", 80, 2.0, 3.0), (2, "dense", 192, 2.0, 3.0)],
         "profile 0 is layer 0 (dense, s=80), but the model's weighted layer 0 is layer 0 "
         "(dense, s=192)"),
        ([(0, "dense", 192, 2.0, 3.0), (1, "dense", 80, 2.0, 3.0)],
         "profile 1 is layer 1 (dense, s=80), but the model's weighted layer 1 is layer 2 "
         "(dense, s=80)"),
        ([(0, "conv2d", 192, 2.0, 3.0), (2, "dense", 80, 2.0, 3.0)],
         "profile 0 is layer 0 (conv2d, s=192), but the model's weighted layer 0 is layer 0 "
         "(dense, s=192)"),
    ])
    def test_profiles_of_another_model_are_exit_1_before_any_forward(self, rig, tmp_path,
                                                                     capsys, monkeypatch,
                                                                     rows, message):
        path = profiles_file(tmp_path, rows)
        forbid_work(monkeypatch)
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--b1-grid", "8", "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s" / "curve.csv").exists()

    def test_compare_disjoint_curves_say_so(self, tmp_path, capsys):
        from qalloc.harness import CurvePoint
        pts = [CurvePoint("adaptive", 8.0, 0, 100, 100 / 8 / 2 ** 20, 0.5),
               CurvePoint("equal", 8.0, 0, 200, 200 / 8 / 2 ** 20, 0.9)]
        modelio.save_curve(pts, tmp_path / "c.csv")
        assert main(["compare", "--curves", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path / "cmp")]) == 0
        assert capsys.readouterr().out == "adaptive vs equal: no overlapping accuracy range\n"
        entry, = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["entries"]
        assert entry["baseline"] == "equal" and entry["disjoint"] is True

    def test_compare_requires_two_methods(self, tmp_path, capsys):
        from qalloc.harness import CurvePoint
        pts = [CurvePoint("equal", 8.0, 0, 100, 100 / 8 / 2 ** 20, 0.5)]
        modelio.save_curve(pts, tmp_path / "c.csv")
        assert main(["compare", "--curves", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: need curves from at least two methods, found ['equal']\n")


class TestLemmaVerify:
    def test_lemma_check_exit_zero(self, capsys):
        assert main(["lemma-check", "--d", "10", "--delta", "0.1",
                     "--trials", "2000"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_quick_on_fresh_fixture(self, tmp_path, capsys):
        # at n=600 the statistical checks are noisier than at full scale, so
        # assert exit-code semantics rather than all-pass (the full-scale
        # battery is exercised by the acceptance suite)
        code = main(["verify", "--quick", "--n", "600", "--b1-grid", "5:10:1",
                     "--out", str(tmp_path / "v")])
        stdout = capsys.readouterr().out
        assert (code == 0) == ("[FAIL]" not in stdout)
        assert "[PASS] quantizer_law" in stdout
        assert "[PASS] kkt_stationarity" in stdout
        assert "[PASS] sweep_reproducible" in stdout
        assert "[PASS] roundtrips" in stdout
        assert (tmp_path / "v" / "verify.json").exists()

    @pytest.mark.parametrize("given", ["model", "data", "both"])
    def test_verify_loads_what_is_given_and_generates_the_rest(self, rig, capsys, monkeypatch,
                                                               given):
        from qalloc import harness

        seen = []

        def spy(model, dataset, **settings):
            seen.append((model, dataset))
            return []

        monkeypatch.setattr(harness, "verify", spy)
        if given == "data":  # a dataset the generated fixture can run
            fixture = modelio.gen_model(modelio.default_fixture())
            modelio.save_dataset(modelio.gen_dataset(fixture, 300, seed=0), rig / "d")
        argv = ["verify", "--n", "7"]
        argv += ["--model", str(rig / "m")] if given in ("model", "both") else []
        argv += ["--data", str(rig / "d")] if given in ("data", "both") else []
        assert main(argv) == 0
        (model, dataset), = seen
        assert (model.input_shape == (12,)) == (given != "data")
        assert len(dataset) == (7 if given == "model" else 300)
        generating = "no model given; generating the default fixture\n"
        assert capsys.readouterr().err == (generating if given == "data" else "")

    def test_verify_missing_data_is_one_line_exit_1(self, rig, capsys, monkeypatch):
        from qalloc import harness

        monkeypatch.setattr(harness, "verify", lambda *args, **kwargs: [])
        assert main(["verify", "--model", str(rig / "m"), "--data", str(rig / "nope")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(["verify", "--data", str(rig / "nope")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[1].startswith("error: ")

    @pytest.mark.parametrize("case", ["12 inputs", "label 10", "0 rows"])
    def test_verify_rejects_a_dataset_the_model_cannot_run(self, tmp_path, capsys, monkeypatch,
                                                           case):
        from qalloc import harness

        called = []
        monkeypatch.setattr(harness, "verify", lambda *args, **kwargs: called.append(1) or [])
        fixture = modelio.gen_model(modelio.default_fixture())
        modelio.save_model(fixture, tmp_path / "fixture")
        data = modelio.gen_dataset(fixture, 4, seed=0)
        if case == "12 inputs":
            data = Dataset(np.zeros((4, 12), np.float32), data.labels)
        elif case == "label 10":
            data = Dataset(data.inputs, np.array([0, 1, 10, 2]))
        else:
            data = Dataset(data.inputs[:0], data.labels[:0])
        modelio.save_dataset(data, tmp_path / "d")
        assert main(["verify", "--model", str(tmp_path / "fixture"),
                     "--data", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert called == []

    def test_manifest_records_config_and_hashes(self, rig, tmp_path):
        out = tmp_path / "mm"
        assert main(["margins", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "margins"
        assert doc["config"]["model"] == str(rig / "m")
        assert "margins.json" in doc["outputs"]
        assert len(doc["outputs"]["margins.json"]) == 64  # sha256 hex

    def test_estimate_commands_emit_csv_twin(self, rig, tmp_path):
        out = tmp_path / "cal"
        assert main(["estimate-p", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--out", str(out)]) == 0
        text = (out / "profiles_p.csv").read_text()
        assert text.splitlines()[0].startswith("index,kind,s,t,p")
        assert len(text.splitlines()) == 3  # header + two weighted layers


# ---------------------------------------------------------------------------
# one way out: each command names the files it wrote, main writes the manifest


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """The rig plus the profiles, allocation and curve the later commands read."""
    w = save_rig(tmp_path_factory.mktemp("staged"))
    for argv in (["estimate-t", "--model", f"{w}/m", "--data", f"{w}/d", "--delta-acc", "0.3",
                  "--acc-tolerance", "0.02"],
                 ["estimate-p", "--model", f"{w}/m", "--data", f"{w}/d"],
                 ["allocate", "--profiles", f"{w}/profiles_t.json",
                  "--profiles", f"{w}/profiles_p.json", "--b1", "8"],
                 ["sweep", "--model", f"{w}/m", "--data", f"{w}/d",
                  "--profiles", f"{w}/profiles_t.json", "--profiles", f"{w}/profiles_p.json",
                  "--b1-grid", "5:9:1", "--max-variants", "4"]):
        assert main([*argv, "--out", str(w)]) == 0
    return w


# command -> (arguments, relative to the staged directory w, and the files it writes)
COMMANDS = {
    "gen-model": (["--seed", "3"], {"fixture.model.json", "fixture.model.bin"}),
    "gen-data": (["--model", "{w}/m", "--n", "40"], {"data.dataset.json", "data.dataset.bin"}),
    "margins": (["--model", "{w}/m", "--data", "{w}/d"], {"margins.json"}),
    "estimate-t": (["--model", "{w}/m", "--data", "{w}/d", "--delta-acc", "0.3",
                    "--acc-tolerance", "0.02"], {"profiles_t.json", "profiles_t.csv"}),
    "estimate-p": (["--model", "{w}/m", "--data", "{w}/d"], {"profiles_p.json", "profiles_p.csv"}),
    "allocate": (["--profiles", "{w}/profiles_t.json", "--profiles", "{w}/profiles_p.json",
                  "--b1", "8"], {"allocation.json"}),
    "quantize": (["--model", "{w}/m", "--allocation", "{w}/allocation.json"],
                 {"quantized.model.json", "quantized.model.bin"}),
    "evaluate": (["--model", "{w}/m", "--data", "{w}/d"], {"evaluation.json"}),
    "sweep": (["--model", "{w}/m", "--data", "{w}/d", "--profiles", "{w}/profiles_t.json",
               "--profiles", "{w}/profiles_p.json", "--b1-grid", "6,7", "--max-variants", "2"],
              {"curve.csv"}),
    "compare": (["--curves", "{w}/curve.csv"], {"comparison.json"}),
    "lemma-check": (["--trials", "2000"], {"lemma.json"}),
    "verify": (["--model", "{w}/m", "--data", "{w}/d"], {"verify.json"}),
}
FORWARDING = {"margins", "estimate-t", "estimate-p", "evaluate", "sweep", "verify"}


def stub_verify(monkeypatch):
    """The battery is tested in test_harness; here only its report path matters."""
    monkeypatch.setattr(harness, "verify", lambda *args, **kwargs: [])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_lists_exactly_the_files_written(staged, tmp_path, monkeypatch, command):
    stub_verify(monkeypatch)
    args, written = COMMANDS[command]
    out = tmp_path / "out"
    argv = [command, *(a.format(w=staged) for a in args), "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert {p.name for p in out.iterdir()} == written | {"manifest.json"}
    assert doc["command"] == command
    for path in out.glob("*.json"):  # modelio stamps every JSON file, the manifest included
        first = next(iter(json.loads(path.read_text()).items()))
        assert first == ("format_version", modelio.FORMAT_VERSION), path
    assert list(doc["outputs"]) == sorted(written)
    assert doc["outputs"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                              for name in written}
    parsed = vars(build_parser().parse_args(argv))
    assert doc["config"] == {k: v for k, v in parsed.items() if k not in ("func", "command")}


def test_method_choices_and_sweep_default_are_the_allocators_methods():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    method = next(a for a in commands["allocate"]._actions if a.dest == "method")
    methods = next(a for a in commands["sweep"]._actions if a.dest == "methods")
    assert tuple(method.choices) == allocate.METHODS
    assert tuple(methods.default.split(",")) == allocate.METHODS
    assert inspect.signature(harness.sweep).parameters["methods"].default == allocate.METHODS


@pytest.mark.parametrize("command", ["margins", "evaluate", "lemma-check", "verify"])
def test_report_commands_write_nothing_without_out(staged, tmp_path, monkeypatch, command):
    stub_verify(monkeypatch)
    monkeypatch.delenv("QALLOC_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    args, _ = COMMANDS[command]
    assert main([command, *(a.format(w=staged) for a in args)]) == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["missing model", "unknown candidate", "one method"])
def test_failed_command_leaves_no_out_directory(staged, tmp_path, capsys, case):
    modelio.save_curve([harness.CurvePoint("equal", 8.0, 0, 100, 100 / 8 / 2 ** 20, 0.5)],
                       tmp_path / "one.csv")
    argv = {"missing model": ["estimate-t", "--model", str(tmp_path / "missing"),
                              "--data", f"{staged}/d"],
            "unknown candidate": ["compare", "--curves", f"{staged}/curve.csv",
                                  "--candidate", "nope"],
            "one method": ["compare", "--curves", str(tmp_path / "one.csv")]}[case]
    out = tmp_path / "new"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("s", 7, "layer 0: profiles of different models (dense, s=7 and dense, s=192)"),
    ("kind", "conv2d", "layer 0: profiles of different models (conv2d, s=192 and dense, s=192)")])
def test_sweep_rejects_partial_profiles_of_two_models(staged, tmp_path, capsys, monkeypatch,
                                                      field, value, message):
    # a t-only file edited to another model's layer, then the p-only file: the p
    # file's kind and s must not simply win the merge
    doc = json.loads((staged / "profiles_t.json").read_text())
    doc["layers"][0][field] = value
    (tmp_path / "profiles_t.json").write_text(json.dumps(doc))
    forbid_work(monkeypatch)
    assert main(["sweep", "--model", f"{staged}/m", "--data", f"{staged}/d",
                 "--profiles", str(tmp_path / "profiles_t.json"),
                 "--profiles", f"{staged}/profiles_p.json", "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_threads_help_says_no_effect_where_no_forward_runs(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # the last "--threads THREADS" is the option's entry; the first is in the usage line
    threads_help = " ".join(capsys.readouterr().out.split()).split("--threads THREADS")[-1]
    assert threads_help.startswith(" no effect") == (command not in FORWARDING)


# ---------------------------------------------------------------------------
# flags main rejects before the command runs


SEEDED = {
    "gen-model --seed": ["gen-model"],
    "gen-data --seed": ["gen-data", "--model", "{w}/m"],
    "estimate-t --seed": ["estimate-t", "--model", "{w}/m", "--data", "{w}/d"],
    "lemma-check --seed": ["lemma-check"],
    "verify --seed": ["verify", "--quick", "--n", "300"],
    "verify --fixture-seed": ["verify", "--quick", "--n", "300"],
}


@pytest.mark.parametrize("case", sorted(SEEDED))
def test_negative_seed_is_one_line_exit_1_before_any_work(staged, tmp_path, monkeypatch, capsys,
                                                          case):
    forbid_work(monkeypatch)
    flag = case.split()[1]
    out = tmp_path / "out"
    argv = [a.format(w=staged) for a in SEEDED[case]]
    assert main([*argv, flag, "-1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} must be >= 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "verify"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_n_below_one_is_one_line_exit_1_before_any_work(staged, tmp_path, monkeypatch, capsys,
                                                        command, n):
    forbid_work(monkeypatch)
    out = tmp_path / "out"
    argv = ["gen-data", "--model", f"{staged}/m"] if command == "gen-data" else ["verify"]
    assert main([*argv, "--n", n, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: --n must be >= 1, got {n}\n")
    assert not out.exists()


# a malformed command line -> (argv, a fragment its error names); --out would make "out"
USAGE_ERRORS = {
    "bad int": (["estimate-t", "--model", "m", "--data", "d", "--max-iters", "abc", "--out", "out"],
                "--max-iters"),
    "missing flag": (["margins", "--model", "m", "--out", "out"], "--data"),
    "unknown command": (["no-such-command", "--out", "out"], "no-such-command"),
    "unknown flag": (["margins", "--model", "m", "--data", "d", "--bogus", "--out", "out"],
                     "--bogus"),
    "no command": ([], "command"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_is_one_line_exit_1_before_any_work(tmp_path, monkeypatch, capsys, case):
    forbid_work(monkeypatch)
    monkeypatch.delenv("QALLOC_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    argv, fragment = USAGE_ERRORS[case]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: qalloc") and err.count("\n") == 1
    assert fragment in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["margins", "--help"], ["--version"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("case", ["estimate-t --out", "margins --out", "sweep $QALLOC_OUTDIR"])
def test_out_naming_a_file_fails_before_any_work(staged, tmp_path, monkeypatch, capsys, case):
    forbid_work(monkeypatch)
    command, where = case.split()
    target = tmp_path / "file"
    target.write_text("kept")
    args, _ = COMMANDS[command]
    argv = [command, *(a.format(w=staged) for a in args)]
    if where == "--out":
        argv += ["--out", str(target)]
    else:
        monkeypatch.setenv("QALLOC_OUTDIR", str(target))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{target}'\n")
    assert target.read_text() == "kept"


@pytest.mark.parametrize("case", ["estimate-t --out", "estimate-t --out/deeper",
                                  "sweep $QALLOC_OUTDIR"])
def test_out_below_a_file_fails_before_any_work(staged, tmp_path, monkeypatch, capsys, case):
    forbid_work(monkeypatch)
    command, where = case.split()
    target = tmp_path / "afile"
    target.write_text("kept")
    out = target / "sub" / "deeper" if where.endswith("deeper") else target / "sub"
    args, _ = COMMANDS[command]
    argv = [command, *(a.format(w=staged) for a in args)]
    if where.startswith("--out"):
        argv += ["--out", str(out)]
    else:
        monkeypatch.setenv("QALLOC_OUTDIR", str(out))
    assert main(argv) == 1
    # the one line the first write would print, and no progress line before it
    assert capsys.readouterr() == ("", f"error: [Errno 20] Not a directory: '{out}'\n")
    assert target.read_text() == "kept"


def test_report_command_without_out_ignores_an_outdir_file(staged, tmp_path, monkeypatch):
    # margins writes nothing without --out, so $QALLOC_OUTDIR is never used
    target = tmp_path / "file"
    target.write_text("kept")
    monkeypatch.setenv("QALLOC_OUTDIR", str(target))
    assert main(["margins", "--model", f"{staged}/m", "--data", f"{staged}/d"]) == 0
    assert target.read_text() == "kept"
