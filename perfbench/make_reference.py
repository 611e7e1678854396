"""Record the stored sweep profiles and the reference output digests.

    python3 perfbench/make_reference.py

Run this only on a commit whose outputs are known to be right (it was run
on the seed commit of the benchmark): every later run is checked against
what it writes.  It writes data/profiles.json (`harness.run_pipeline` on
input 0, the package's default configuration) and reference.json, the
sha256 of every output of every workload on each of the N_INPUTS inputs.
Takes about 12 minutes on 2 cores.
"""

import bootstrap  # noqa: F401  (first: pins BLAS threads before numpy loads)

import json
import shutil
import sys

import workloads
from bootstrap import ROOT
from qalloc import harness, modelio, probes


def main() -> int:
    model, data = workloads.fixture(0)
    profiles = harness.run_pipeline(model, data, probes.ProbeConfig(seed=0))
    modelio.save_profiles(profiles, workloads.PROFILES, meta={
        "fixture_seed": modelio.DEFAULT_SEED, "dataset_seed": workloads.dataset_seed(0),
        "probe_seed": 0, "n": workloads.N_ROWS})
    reference = {"n_inputs": workloads.N_INPUTS, "sweep_grid": workloads.SWEEP_GRID,
                 "workloads": {}}
    work = ROOT / ".perfbench_work" / "reference"
    try:
        for name, wl in workloads.WORKLOADS.items():
            digests = reference["workloads"][name] = {}
            for k in range(workloads.N_INPUTS):
                state = wl.setup(k, work)
                result = wl.job(state, workloads.no_span)
                digests[str(k)] = wl.outputs(state, result)
                print(f"{name} input {k}: {len(digests[str(k)])} outputs, "
                      f"{wl.quality(state, result)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
