"""The per-layer metric catalogue of the traced runs.

Every traced run reports every per-layer metric named in
``BENCHMARK.json``; a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import subprocess
import sys

from harness import child_env, load_spec, median

#: CE models with ``ce.fit_s.<model>`` / ``ce.infer_us.<model>`` metrics:
#: the testbed's seven candidates plus the optimizer's histogram baseline.
MODELS = ("BayesCard", "DeepDB", "NeuroCard", "MSCN", "LW-NN", "LW-XGB",
          "UAE", "PostgreSQL")


def empty_layer_metrics() -> dict[str, float]:
    return {metric["name"]: 0.0 for metric in load_spec()["per_layer"]}


def model_metric_names() -> list[tuple[str, str, str]]:
    """(model, fit metric, inference metric) for every tracked model."""
    return [(m, f"ce.fit_s.{m}", f"ce.infer_us.{m}") for m in MODELS]


def cli_import_s(repeats: int = 3) -> float:
    """Median time to import the CLI module in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=child_env(), timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip()))
    return median(samples)
