"""The benchmark's three workloads: set-up, one job, and the outputs checked.

A run's `--seed` selects input k = seed % N_INPUTS; k = 0 is the package's
default configuration.  The fixture model always uses `modelio.DEFAULT_SEED`,
which was chosen for class balance, and the probes keep `ProbeConfig.seed`
= 0.  For sweep and cli, input k is the 2000-sample dataset drawn with seed
`modelio.DEFAULT_SEED + 1 + k`.  For calibrate it is the default dataset
with its rows in a seed-k order: the bisection's length depends on the
data (fresh datasets 11-15 gave 44-56 forwards, so wall time moved +/-15%
with the seed), while a row order leaves every per-sample result and hence
the work unchanged.  The probe seed stays fixed for the same reason: it
picks the noise direction, and seeds 1-8 moved the bisection between 24
and 35 iterations.  The inputs are a fixed, finite set so that every job's
outputs can be checked against sha256 digests recorded at the seed commit
(`reference.json`, written by `make_reference.py`).

- calibrate: `harness.run_pipeline`, threads=1.  52 full forwards on every input,
  41 of them on a copy with one layer perturbed or quantized.  Prefix reuse,
  baseline caching and bisection changes land here; quantize_model, allocate
  and modelio stay idle.
- sweep: `harness.sweep` for adaptive, sqnr and equal on SWEEP_ANCHORS, then
  `harness.compare`, threads=1.  Profiles come from a stored file, so probes
  stay idle and dedup / trie / quantize changes land here.
- cli: the README command sequence through `qalloc.cli.main` in this process,
  `--threads 2`, into a fresh directory.  Every command re-reads the model
  and dataset and writes its artifacts and manifest, so modelio and cli do
  their real work and nothing held in memory carries between commands.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

from bootstrap import BENCH_DIR  # first: pins BLAS threads before numpy loads

import numpy as np
from qalloc import cli, harness, modelio, nn, probes

from tracer import comparison_quality

N_INPUTS = 16
N_ROWS = 2000
# The default 17-anchor grid makes 202 points (~60 s a job); 6..10 in whole
# bits makes 50 and is the grid the cli workload sweeps as well.
SWEEP_GRID = "6:10:1"
SWEEP_ANCHORS = (6.0, 7.0, 8.0, 9.0, 10.0)
PROFILES = BENCH_DIR / "data" / "profiles.json"
REFERENCE = BENCH_DIR / "reference.json"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dataset_seed(k: int) -> int:
    return modelio.DEFAULT_SEED + 1 + k


def fixture(k: int):
    model = modelio.gen_model(modelio.default_fixture())
    return model, modelio.gen_dataset(model, N_ROWS, seed=dataset_seed(k))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def no_span(name: str):
    return contextlib.nullcontext()


class Calibrate:
    threads = 1

    def setup(self, k: int, work: Path):
        model, data = fixture(0)
        if k:
            order = np.random.default_rng(k).permutation(N_ROWS)
            data = nn.Dataset(data.inputs[order], data.labels[order])
        return SimpleNamespace(k=k, model=model, data=data)

    def job(self, s, span):
        return harness.run_pipeline(s.model, s.data, probes.ProbeConfig(threads=self.threads))

    def outputs(self, s, profiles) -> dict[str, str]:
        return {"profiles.json": sha256_text(json.dumps([dataclasses.asdict(p) for p in profiles]))}

    def quality(self, s, profiles) -> dict[str, float]:
        return {}


class Sweep:
    threads = 1

    def setup(self, k: int, work: Path):
        model, data = fixture(k)
        profiles, _ = modelio.load_profiles(PROFILES)
        return SimpleNamespace(k=k, model=model, data=data, profiles=profiles)

    def job(self, s, span):
        curves = harness.sweep(s.model, s.data, s.profiles, b1_values=SWEEP_ANCHORS,
                               threads=self.threads)
        return curves, harness.compare(curves)

    def outputs(self, s, result) -> dict[str, str]:
        curves, report = result
        points = sorted((p for pts in curves.values() for p in pts),
                        key=lambda p: (p.method, p.b1, p.variant))
        return {"curve.csv": sha256_text(modelio.curve_csv_text(points)),
                "comparison.json": sha256_text(
                    json.dumps(harness.comparison_payload(report), indent=1))}

    def quality(self, s, result) -> dict[str, float]:
        return comparison_quality(harness.comparison_payload(result[1]))


CLI_COMMANDS = ("gen-model", "gen-data", "margins", "estimate-t", "estimate-p", "allocate",
                "quantize", "evaluate", "sweep", "compare")


def cli_argvs(run: Path, k: int, threads: int) -> list[list[str]]:
    """The README sequence; margins and evaluate also get --out so they write a manifest."""
    model, data = f"{run}/fixture", f"{run}/data"
    both = ["--profiles", f"{run}/profiles_t.json", "--profiles", f"{run}/profiles_p.json"]
    argvs = [
        ["gen-model"],
        ["gen-data", "--model", model, "--n", str(N_ROWS), "--seed", str(dataset_seed(k))],
        ["margins", "--model", model, "--data", data],
        ["estimate-t", "--model", model, "--data", data],
        ["estimate-p", "--model", model, "--data", data],
        ["allocate", *both, "--method", "adaptive", "--b1", "8"],
        ["quantize", "--model", model, "--allocation", f"{run}/allocation.json"],
        ["evaluate", "--model", f"{run}/quantized", "--data", data],
        ["sweep", "--model", model, "--data", data, *both, "--b1-grid", SWEEP_GRID],
        ["compare", "--curves", f"{run}/curve.csv"],
    ]
    return [[*argv, "--out", str(run), "--threads", str(threads)] for argv in argvs]


class Cli:
    threads = 2

    def setup(self, k: int, work: Path):
        """Stage the fixture and dataset through the library; gen-model/gen-data must match."""
        model, data = fixture(k)
        staged = [*modelio.save_model(model, work / "stage" / "fixture"),
                  *modelio.save_dataset(data, work / "stage" / "data")]
        return SimpleNamespace(k=k, model=model, data=data, run=work / "run",
                               staged={p.name: sha256_file(p) for p in staged})

    def job(self, s, span):
        shutil.rmtree(s.run, ignore_errors=True)
        digests = {}
        for argv in cli_argvs(s.run, s.k, self.threads):
            command, log = argv[0], io.StringIO()
            with span(f"cli.{command}"), contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"qalloc {command} exited {code}: {log.getvalue().strip()}")
            # every command overwrites manifest.json, so read it before the next one runs
            manifest = json.loads((s.run / "manifest.json").read_text())
            if manifest["command"] != command:
                raise RuntimeError(f"qalloc {command} wrote no manifest")
            digests.update({f"{command}/{name}": sha for name, sha in manifest["outputs"].items()})
        return digests

    def outputs(self, s, digests) -> dict[str, str]:
        for name, sha in s.staged.items():
            key = f"gen-model/{name}" if ".model." in name else f"gen-data/{name}"
            if digests.get(key) != sha:
                raise RuntimeError(f"{key} differs from the file the library writes")
        return digests

    def quality(self, s, digests) -> dict[str, float]:
        return comparison_quality(json.loads((s.run / "comparison.json").read_text()))


WORKLOADS = {"calibrate": Calibrate(), "sweep": Sweep(), "cli": Cli()}


def engine_table(model, inputs, repeats: int = 5) -> dict[str, float]:
    """Milliseconds per forward for each engine layer, through the public API only.

    Each prefix `layers[:i]` is closed with a one-output dense head so that it
    is a valid Model; layer i costs T(prefix i+1) - T(prefix i).  The head's
    own cost (one matrix-vector product) is small next to any layer.
    """
    prefixes = []
    for end in range(len(model.layers) + 1):
        head = nn.Layer("dense", np.zeros((int(np.prod(model.shapes[end])), 1)))
        prefixes.append(nn.Model(model.layers[:end] + (head,), model.input_shape))
    samples = [[] for _ in range(len(prefixes) + 1)]
    for _ in range(repeats):  # interleaved, so drift affects every prefix alike
        for i, m in enumerate([*prefixes, model]):
            t0 = time.perf_counter()
            nn.forward_batch(m, inputs)
            samples[i].append(time.perf_counter() - t0)
    # paired within one pass, so slow drift cancels; median over passes
    table = {f"nn.layer{i}.{layer.kind}.ms":
             1e3 * statistics.median(b - a for a, b in zip(samples[i], samples[i + 1]))
             for i, layer in enumerate(model.layers)}
    table["nn.engine.fwd_ms"] = 1e3 * statistics.median(samples[-1])
    return table
