"""Gradient-norm clipping gives the same bits under any BLAS thread count.

A threaded BLAS ``ddot`` splits long vectors across threads and sums the
partial results in a different order, so a norm taken with ``np.dot``
changes in its last bits with ``OPENBLAS_NUM_THREADS``, and so do the DML
weights trained with it.  Each thread setting runs in a fresh interpreter,
because OpenBLAS reads the variable once, at load time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import hashlib
import numpy as np
from repro import nn
from repro.nn.autograd import Tensor

rng = np.random.default_rng(0)
warm = rng.normal(size=(96, 96))
for _ in range(5):
    warm = warm @ warm / 96.0  # small GEMMs start the BLAS thread pool
param = Tensor(rng.normal(size=25000), requires_grad=True)
param.grad = rng.normal(size=25000) * 50.0
norm = nn.clip_grad_norm([param], 1.0)
print(norm.hex(), hashlib.sha256(param.grad.tobytes()).hexdigest())
# Adam's fused path folds the same clipping into its flat-gradient gather.
params = [Tensor(rng.normal(size=(120, 120)), requires_grad=True),
          Tensor(rng.normal(size=10000), requires_grad=True)]
adam = nn.Adam(params, lr=1e-2)
for step in range(20):
    for p in params:
        p.grad = rng.normal(size=p.data.shape) * (10.0 + step)
    adam.step(grad_clip=1.0)
print(hashlib.sha256(b"".join(p.data.tobytes() for p in params)).hexdigest())
"""


def run_with_threads(threads: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_clip_norm_bytes_equal_across_blas_threads():
    # Both gradients (25 000 and 24 400 elements) are past the length at
    # which OpenBLAS threads a dot product (10 000).
    assert run_with_threads("1") == run_with_threads("2")
