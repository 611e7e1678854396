import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalloc import allocate, modelio, nn
from qalloc.cli import main
from qalloc.harness import CurvePoint
from qalloc.modelio import LoadError
from qalloc.nn import Dataset, Layer, Model
from qalloc.probes import LayerProfile


@pytest.fixture(scope="module")
def fixture_model():
    return modelio.gen_model(modelio.default_fixture())


class TestGenModel:
    def test_same_spec_is_bit_identical(self, fixture_model):
        again = modelio.gen_model(modelio.default_fixture())
        for a, b in zip(fixture_model.layers, again.layers):
            if a.weights is not None:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)

    def test_default_fixture_parameter_counts(self, fixture_model):
        # conv 3*3*4*8+8, conv 3*3*8*8+8, dense 512*64+64, dense 64*10+10
        assert fixture_model.layer_sizes() == (296, 584, 32832, 650)

    def test_d_equals_final_dense_width(self, fixture_model):
        assert fixture_model.d == 10
        assert fixture_model.layers[-1].weights.shape[1] == 10

    def test_non_composable_architecture_rejected(self):
        spec = modelio.FixtureSpec(input_shape=(6,), layers=(
            {"kind": "conv2d", "kernel": [3, 3], "out_channels": 4},), seed=0)
        with pytest.raises(ValueError, match="layer 0"):
            modelio.gen_model(spec)


class TestGenDataset:
    def test_teacher_labels_give_accuracy_one(self, fixture_model):
        ds = modelio.gen_dataset(fixture_model, 300, seed=5)
        assert nn.evaluate_accuracy(fixture_model, ds) == 1.0

    def test_every_class_appears_at_5000(self, fixture_model):
        ds = modelio.gen_dataset(fixture_model, 5000, seed=191)
        counts = np.bincount(ds.labels, minlength=fixture_model.d)
        assert counts.min() > 0

    def test_same_seed_is_identical(self, fixture_model):
        a = modelio.gen_dataset(fixture_model, 50, seed=9)
        b = modelio.gen_dataset(fixture_model, 50, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_n_validated(self, fixture_model):
        with pytest.raises(ValueError):
            modelio.gen_dataset(fixture_model, 0)


class TestModelRoundTrip:
    def test_bit_exact(self, fixture_model, tmp_path):
        modelio.save_model(fixture_model, tmp_path / "m")
        again = modelio.load_model(tmp_path / "m")
        assert again.input_shape == fixture_model.input_shape
        for a, b in zip(fixture_model.layers, again.layers):
            assert a.kind == b.kind
            if a.weights is not None:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)
            if a.kind == "maxpool2d":
                assert (a.pool_size, a.stride) == (b.pool_size, b.stride)

    def test_sidecar_length_matches_declared_tensors(self, fixture_model, tmp_path):
        json_path, bin_path = modelio.save_model(fixture_model, tmp_path / "m")
        n_elems = sum(l.param_count for l in fixture_model.layers)
        assert bin_path.stat().st_size == 4 * n_elems

    def test_corrupted_offset_names_tensor(self, fixture_model, tmp_path):
        json_path, _ = modelio.save_model(fixture_model, tmp_path / "m")
        doc = json.loads(json_path.read_text())
        doc["layers"][0]["weights"]["offset"] = 10 ** 9
        json_path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match="layer 0 weights"):
            modelio.load_model(tmp_path / "m")

    def test_overlapping_offsets_rejected(self, fixture_model, tmp_path):
        json_path, _ = modelio.save_model(fixture_model, tmp_path / "m")
        doc = json.loads(json_path.read_text())
        doc["layers"][0]["bias"]["offset"] = doc["layers"][0]["weights"]["offset"]
        json_path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match="overlaps"):
            modelio.load_model(tmp_path / "m")

    def test_truncated_sidecar_rejected(self, fixture_model, tmp_path):
        json_path, bin_path = modelio.save_model(fixture_model, tmp_path / "m")
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(LoadError):
            modelio.load_model(tmp_path / "m")

    def test_version_mismatch_rejected(self, fixture_model, tmp_path):
        json_path, _ = modelio.save_model(fixture_model, tmp_path / "m")
        doc = json.loads(json_path.read_text())
        doc["format_version"] = 99
        json_path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match="format_version"):
            modelio.load_model(tmp_path / "m")


class TestDatasetRoundTrip:
    def test_bit_exact(self, fixture_model, tmp_path):
        ds = modelio.gen_dataset(fixture_model, 64, seed=2)
        modelio.save_dataset(ds, tmp_path / "d")
        again = modelio.load_dataset(tmp_path / "d")
        assert np.array_equal(ds.inputs, again.inputs)
        assert np.array_equal(ds.labels, again.labels)

    def test_truncation_rejected(self, fixture_model, tmp_path):
        ds = modelio.gen_dataset(fixture_model, 8, seed=2)
        _, bin_path = modelio.save_dataset(ds, tmp_path / "d")
        bin_path.write_bytes(bin_path.read_bytes()[:-4])
        with pytest.raises(LoadError):
            modelio.load_dataset(tmp_path / "d")


def make_profiles():
    return [
        LayerProfile(index=0, kind="conv2d", s=296, t=3.5, p=0.8, noise_scale=0.1,
                     delta_acc=0.5, b_probe=10, weight_range=(-0.16, 0.17)),
        LayerProfile(index=5, kind="dense", s=32832, t=5.1, p=2.25, noise_scale=0.05,
                     delta_acc=0.5, b_probe=10, weight_range=(-0.04, 0.04), copied_t=True),
    ]


class TestReportRoundTrips:
    def test_profiles(self, tmp_path):
        profiles = make_profiles()
        path = modelio.save_profiles(profiles, tmp_path / "p.json", meta={"seed": 3})
        again, meta = modelio.load_profiles(path)
        assert again == profiles
        assert meta == {"seed": 3}

    def test_profiles_with_nan_fields(self, tmp_path):
        prof = LayerProfile(index=1, kind="dense", s=10, t=float("nan"), p=2.0,
                            noise_scale=float("nan"), delta_acc=float("nan"), b_probe=10,
                            weight_range=(-1.0, 1.0))
        path = modelio.save_profiles([prof], tmp_path / "p.json")
        again, _ = modelio.load_profiles(path)
        assert again[0].t != again[0].t  # NaN survives as NaN
        assert again[0].p == 2.0
        assert "NaN" not in path.read_text()  # strict JSON on disk

    def test_allocation(self, tmp_path):
        a = allocate.allocate_sqnr([296, 584, 32832, 650], 8.0)
        path = modelio.save_allocation(a, tmp_path / "a.json")
        assert modelio.load_allocation(path) == a

    def test_curve(self, tmp_path):
        from qalloc.harness import CurvePoint
        points = [CurvePoint("equal", 8.0, 0, 23456, 23456 / 8 / 2 ** 20, 0.8125),
                  CurvePoint("adaptive", 7.5, 2, 20000, 20000 / 8 / 2 ** 20, 0.7915)]
        path = modelio.save_curve(points, tmp_path / "c.csv")
        rows = modelio.load_curve(path)
        for p, row in zip(points, rows):
            assert row["method"] == p.method
            assert row["b1"] == p.b1
            assert row["size_bits"] == p.size_bits
            assert row["top1"] == p.top1  # repr round-trips exactly

    def test_curve_header_enforced(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(LoadError, match="header"):
            modelio.load_curve(tmp_path / "bad.csv")


# ---------------------------------------------------------------------------
# malformed artifacts: every loader raises LoadError, every CLI reader exits 1


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One small artifact of each kind; the model has every layer kind."""
    root = tmp_path_factory.mktemp("artifacts")
    rng = np.random.default_rng(3)
    model = Model((Layer("conv2d", rng.uniform(-1, 1, (3, 3, 1, 2)).astype(np.float32),
                         np.zeros(2, np.float32), padding="same"),
                   Layer("relu"), Layer("maxpool2d", pool_size=2, stride=2),
                   Layer("dense", rng.uniform(-1, 1, (18, 3)).astype(np.float32),
                         np.zeros(3, np.float32))), (6, 6, 1))
    inputs = rng.standard_normal((20, 6, 6, 1)).astype(np.float32)
    modelio.save_model(model, root / "m")
    modelio.save_dataset(Dataset(inputs, nn.classify_batch(nn.forward_batch(model, inputs))),
                         root / "d")
    profiles = [LayerProfile(index=i, kind=layer.kind, s=layer.param_count, t=2.0, p=3.0,
                             noise_scale=0.1, delta_acc=0.5, b_probe=10,
                             weight_range=(-1.0, 1.0))
                for i, layer in enumerate(model.layers) if layer.weights is not None]
    modelio.save_profiles(profiles, root / "p.json", meta={"seed": 0})
    modelio.save_allocation(allocate.allocate_adaptive(profiles, 8.0), root / "a.json")
    modelio.save_curve([CurvePoint("adaptive", 8.0, 0, 180, 180 / 8 / 2 ** 20, 0.75),
                        CurvePoint("equal", 8.0, 0, 200, 200 / 8 / 2 ** 20, 0.8)],
                       root / "c.csv")
    return root


# artifact -> (loader, its file, CLI arguments that read it), relative to a run directory w
LOADERS = {
    "model": (lambda w: modelio.load_model(w / "m"), "m.model.json",
              ["evaluate", "--model", "{w}/m", "--data", "{w}/d"]),
    "dataset": (lambda w: modelio.load_dataset(w / "d"), "d.dataset.json",
                ["evaluate", "--model", "{w}/m", "--data", "{w}/d"]),
    "profiles": (lambda w: modelio.load_profiles(w / "p.json"), "p.json",
                 ["allocate", "--profiles", "{w}/p.json", "--b1", "8"]),
    "allocation": (lambda w: modelio.load_allocation(w / "a.json"), "a.json",
                   ["quantize", "--model", "{w}/m", "--allocation", "{w}/a.json"]),
    "curve": (lambda w: modelio.load_curve(w / "c.csv"), "c.csv",
              ["compare", "--curves", "{w}/c.csv"]),
}


def assert_rejected(artifacts, work, kind, mutate):
    """Stage fresh copies in `work`, mutate one file, expect LoadError and a one-line exit 1."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(artifacts, work)
    load, name, argv = LOADERS[kind]
    mutate(work / name)
    with pytest.raises(LoadError) as info:
        load(work)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([a.format(w=work) for a in argv] + ["--out", str(work / "out")])
    assert code == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return str(info.value)


def edit_json(edit):
    def mutate(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return mutate


MALFORMED = {
    "model": edit_json(lambda doc: doc.pop("layers")),
    "dataset": edit_json(lambda doc: doc.update(n="20")),
    "profiles": edit_json(lambda doc: doc["layers"][0].update(weight_range="ab")),
    "allocation": edit_json(lambda doc: doc["b_int"].append(8.5)),
    "curve": lambda path: path.write_text(path.read_text() + "x,1\n"),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_artifact_is_a_load_error_naming_the_file(artifacts, tmp_path, kind):
    message = assert_rejected(artifacts, tmp_path / "w", kind, MALFORMED[kind])
    assert str(tmp_path / "w" / LOADERS[kind][1]) in message


OPTIONAL = {"stride", "padding", "pool_size", "inputs_offset", "meta", "copied_t", "degenerate",
            "saturated"}
NULLABLE = {"t", "p", "noise_scale", "delta_acc"}  # null is how a profile writes NaN
WRONG = [None, True, 7.5, "x", ["x"], {"a": 1}]  # one value of each JSON type


def slots(node):
    """(container, key) for every field of a document; `d` is derived and never read."""
    if isinstance(node, list):
        return [s for item in node for s in slots(item)]
    if not isinstance(node, dict):
        return []
    return [(node, k) for k in node if k != "d"] + [
        s for k, v in node.items() if k != "meta" for s in slots(v)]


@given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_deleted_mistyped_or_truncated_field_is_rejected(artifacts, kind, data):
    if kind == "curve":
        def mutate(path):
            lines = path.read_text().splitlines()
            row = data.draw(st.integers(0, len(lines) - 1), label="row")
            cut = data.draw(st.integers(0, lines[row].rindex(",")), label="cut")
            lines[row] = lines[row][:cut]
            path.write_text("\n".join(lines) + "\n")
    else:
        def mutate(path):
            doc = json.loads(path.read_text())
            node, key = data.draw(st.sampled_from(slots(doc)), label="field")
            wrong = [w for w in WRONG if type(w) is not type(node[key])
                     and not (w is None and key in NULLABLE)]
            actions = wrong + ([] if key in OPTIONAL else ["delete"])
            action = data.draw(st.sampled_from(actions), label=f"{key} ->")
            if action == "delete":
                del node[key]
            else:
                node[key] = action
            path.write_text(json.dumps(doc))
    assert_rejected(artifacts, artifacts.parent / "fuzz", kind, mutate)
