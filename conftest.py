"""Pin BLAS to one thread per process before anything imports numpy, so
that `run_ablation` (criterion 9, the ledger's `ablate`) runs its seeds in
parallel, one process per usable core (`benchmark.default_workers`). An
explicit setting in the environment is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
