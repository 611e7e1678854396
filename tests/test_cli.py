import json

import numpy as np
import pytest

from qalloc import modelio, nn
from qalloc.cli import main
from qalloc.nn import Dataset, Layer, Model
from qalloc.probes import LayerProfile


@pytest.fixture()
def rig(tmp_path):
    """Small dense model + dataset + profile files on disk."""
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.3, 0.3, size=(12, 16)).astype(np.float32)
    w2 = rng.uniform(-0.3, 0.3, size=(16, 5)).astype(np.float32)
    model = Model((Layer("dense", w1), Layer("relu"), Layer("dense", w2)), (12,))
    inputs = rng.standard_normal((300, 12)).astype(np.float32)
    ds = Dataset(inputs, nn.classify_batch(nn.forward_batch(model, inputs)))
    modelio.save_model(model, tmp_path / "m")
    modelio.save_dataset(ds, tmp_path / "d")
    return tmp_path


def profiles_file(tmp_path, rows):
    profiles = [LayerProfile(index=i, kind=k, s=s, t=t, p=p, noise_scale=0.1,
                             delta_acc=0.4, b_probe=10, weight_range=(-0.3, 0.3))
                for i, (k, s, t, p) in enumerate(rows)]
    return modelio.save_profiles(profiles, tmp_path / "profiles.json")


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


class TestAllocate:
    def test_closed_form_example(self, tmp_path, capsys):
        # equal p and t, s2 = 2*s1, b1=8 -> b = (8, 7.5)
        path = profiles_file(tmp_path, [("dense", 100, 2.0, 3.0), ("dense", 200, 2.0, 3.0)])
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
        path = profiles_file(tmp_path, [("conv2d", 18, 2.0, 3.0), ("dense", 72, 2.0, 3.0)])
        assert main(["allocate", "--profiles", str(path), "--method", "equal", "--b1", "8",
                     "--fc-bits", "16", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "allocation.json").read_text())
        profiles, _ = modelio.load_profiles(path)
        point, = harness.sweep(model, ds, profiles, b1_values=[8], methods=("equal",),
                               fc_bits=16)["equal"]
        assert doc["b_int"] == list(point.allocation.b_int) == [8, 16]


class TestFlagRanges:
    def test_equal_with_fractional_b1_is_one_line_exit_1(self, tmp_path, capsys):
        path = profiles_file(tmp_path, [("dense", 208, 2.0, 3.0), ("dense", 85, 2.0, 3.0)])
        assert main(["allocate", "--profiles", str(path), "--method", "equal", "--b1", "8.4",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "must be an integer in [2, 16], got 8.4" in err and err.count("\n") == 1
        assert not (tmp_path / "allocation.json").exists()

    @pytest.mark.parametrize("method", ["adaptive", "sqnr"])
    @pytest.mark.parametrize("b1", ["inf", "nan", "-inf"])
    def test_non_finite_b1_is_one_line_exit_1(self, tmp_path, capsys, method, b1):
        path = profiles_file(tmp_path, [("dense", 208, 2.0, 3.0), ("dense", 85, 2.0, 3.0)])
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
                                      "4:inf:1", "4:12:nan", "", "4,x"])
    def test_bad_b1_grid_is_one_line_exit_1(self, rig, tmp_path, capsys, grid):
        path = profiles_file(tmp_path, [("dense", 208, 2.0, 3.0), ("dense", 85, 2.0, 3.0)])
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--b1-grid", grid, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --b1-grid") and err.count("\n") == 1

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_one_line_exit_1(self, rig, capsys, threads):
        assert main(["evaluate", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--threads", threads]) == 1
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"

    @pytest.mark.parametrize("max_variants", ["0", "-1"])
    def test_max_variants_below_one_is_one_line_exit_1(self, rig, tmp_path, capsys,
                                                       max_variants):
        path = profiles_file(tmp_path, [("dense", 208, 2.0, 3.0), ("dense", 85, 2.0, 3.0)])
        assert main(["sweep", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     "--profiles", str(path), "--b1-grid", "6,7", "--max-variants", max_variants,
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"error: max_variants must be >= 1, got {max_variants}\n")
        assert err.count("error") == 1 and not (tmp_path / "s" / "curve.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-iters", "0", "max_iters must be >= 1, got 0"),
        ("--acc-tolerance", "-0.1", "acc_tolerance must be >= 0, got -0.1")],
        ids=["max-iters", "acc-tolerance"])
    def test_bad_probe_settings_are_one_line_exit_1_before_any_forward(
            self, rig, tmp_path, capsys, monkeypatch, flag, value, message):
        def fail(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(nn, "prefix_cache", fail)
        assert main(["estimate-t", "--model", str(rig / "m"), "--data", str(rig / "d"),
                     flag, value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_valid_b1_grids_parse_as_before(self):
        from qalloc import harness
        from qalloc.cli import _parse_grid

        assert _parse_grid("6:10:1") == [6.0, 7.0, 8.0, 9.0, 10.0]
        assert _parse_grid("4:12:0.5") == harness.default_anchor_grid()
        assert _parse_grid("7:7:1") == [7.0]
        assert _parse_grid("5,6.5") == [5.0, 6.5]


class TestCalibrationFront:
    def test_cli_and_library_calibrate_alike(self, rig, tmp_path):
        from qalloc import harness
        from qalloc.cli import _load_merged_profiles
        from qalloc.probes import ProbeConfig

        cal = tmp_path / "cal"
        for command in ("estimate-t", "estimate-p"):
            assert main([command, "--model", str(rig / "m"), "--data", str(rig / "d"),
                         "--out", str(cal)]) == 0
        merged, _ = _load_merged_profiles([cal / "profiles_t.json", cal / "profiles_p.json"])
        lib = harness.run_pipeline(modelio.load_model(rig / "m"), modelio.load_dataset(rig / "d"),
                                   ProbeConfig(), out_dir=tmp_path / "lib")
        assert merged == lib
        _, meta_t = modelio.load_profiles(cal / "profiles_t.json")
        _, meta = modelio.load_profiles(tmp_path / "lib" / "profiles.json")
        keys = ("baseline_accuracy", "mean_r_star", "delta_acc", "seed")
        assert list(meta_t.items()) == [(k, meta[k]) for k in keys]


class TestQuantizeEvaluate:
    def test_quantize_then_evaluate(self, rig, tmp_path, capsys):
        path = profiles_file(tmp_path, [("dense", 208, 2.0, 3.0), ("dense", 85, 2.0, 3.0)])
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

        path = profiles_file(tmp_path, [("dense", 208, 2.0, 3.0), ("dense", 85, 2.0, 3.0)])
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
        assert err[-1] == (f"{len(vectors)} points, {len(set(vectors))} distinct vectors, "
                           f"segments {first}/{second}")
        assert len(modelio.load_curve(tmp_path / "s" / "curve.csv")) == len(vectors)

    def test_compare_requires_two_methods(self, tmp_path, capsys):
        from qalloc.harness import CurvePoint
        pts = [CurvePoint("equal", 8.0, 0, 100, 100 / 8 / 2 ** 20, 0.5)]
        modelio.save_curve(pts, tmp_path / "c.csv")
        assert main(["compare", "--curves", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path)]) == 1


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
