"""Process set-up shared by every perfbench script; import it before numpy.

It pins the BLAS and OpenMP pools to one thread, so the only parallelism in
a measurement is the program's own `threads` argument (OpenBLAS would
otherwise run its own pool underneath it), and it puts the checkout's `src/`
first on the import path.  Importing qalloc from anywhere else is an error:
a benchmark that quietly measured an installed copy would measure the wrong
code.
"""

import os
import sys
from pathlib import Path

PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if "numpy" in sys.modules:
    sys.exit("perfbench: numpy was imported before the BLAS thread pin")
sys.path.insert(0, str(SRC))
try:
    import qalloc  # noqa: E402
except ImportError as e:
    sys.exit(f"perfbench: cannot import qalloc from {SRC}: {e}")
if Path(qalloc.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: qalloc was imported from {qalloc.__file__}, not from {SRC}")


def environment(program_threads: int) -> dict:
    """What a result depends on besides the code: cores, numpy, BLAS, thread settings."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {var: os.environ.get(var) for var in PINNED_THREAD_VARS},
        "program_threads": program_threads,
    }
