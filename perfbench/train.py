"""``train`` workload: fresh ``repro train --fast`` runs, as a user runs them.

Every run labels a freshly generated corpus with an empty label cache, so
it pays the paper's full offline cost: labeling (testbed + CE fits +
workload generation with true cardinalities), featurization, DML training
and the advisor write.  The benchmark repeats the run with a new corpus
seed until ``--seconds`` have passed.

Untraced: each run is a child process; its set-up time is process launch
to its first output line (interpreter start + imports), and its work time
is first line to exit.  Traced: the same corpora are replayed in-process
through the layer calls ``cmd_train`` makes, once without and once with
spans.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path

from harness import (Tracer, child_env, median, percentile, program_cmd,
                     reap, stop, summarize_ms)

#: Datasets per ``repro train`` run: one of each table count 1-5.
CORPUS = 5
#: At least this many runs, however short ``--seconds`` is.
MIN_RUNS = 3


def corpus_seed(seed: int, run: int) -> int:
    """The ``--seed`` of the ``run``-th train invocation.

    ``repro train --seed S`` labels the datasets ``random_spec(S *
    1_000_003 + i)``.  Labeling cost grows with a dataset's table count
    and row count, so the corpus seed is the first one at or after
    ``(seed, run)`` whose corpus holds exactly one dataset of each table
    count and whose total rows are within 10% of their mean (stratified
    sampling): runs with different seeds then do comparable work while
    every dataset is still an ordinary draw of the generator.
    """
    from repro.datagen.spec import DEFAULT_RANGES, random_spec

    low, high = DEFAULT_RANGES["rows"]
    mean_rows = sum(range(1, CORPUS + 1)) * (low + high) / 2
    candidate = (seed * 1000 + run) * 1000
    while True:
        specs = [random_spec(candidate * 1_000_003 + i) for i in range(CORPUS)]
        counts = sorted(len(spec.tables) for spec in specs)
        rows = sum(t.num_rows for spec in specs for t in spec.tables)
        if (counts == list(range(1, CORPUS + 1))
                and abs(rows - mean_rows) <= 0.1 * mean_rows):
            return candidate
        candidate += 1


def _train_once(seed: int, work: Path, run: int) -> dict:
    """One ``repro train`` child: timings, peak RSS and its output file."""
    out = work / f"advisor_{run}.npz"
    cmd = program_cmd("train", "--fast", "--corpus", str(CORPUS),
                      "--seed", str(corpus_seed(seed, run)),
                      "--out", str(out), "--cache", str(work / f"labels_{run}"))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=child_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        errors = proc.stderr.read()
        code, rss = reap(proc)
        end = time.perf_counter()
    finally:
        stop(proc)
        proc.stdout.close()
        proc.stderr.close()
    ok = code == 0 and first.startswith("labeling corpus") and \
        f"wrote {out}" in rest
    return {"run": run, "ok": ok, "setup_s": ready - start,
            "work_s": end - ready, "rss_mb": rss, "out": out,
            "error": None if ok else (errors.strip().splitlines() or
                                      [f"exit code {code}"])[-1]}


def _check_advisor(seed: int, run: int, path: Path) -> str | None:
    """The written advisor loads and answers each member of its corpus.

    A member's own embedding is at distance zero (up to the rounding of
    the Gram-identity distance), so its nearest neighbor must be itself.
    Returns an error message or ``None``.
    """
    import numpy as np
    from repro.core.persistence import load_advisor
    from repro.datagen.multi_table import generate_dataset
    from repro.datagen.spec import random_spec

    advisor = load_advisor(str(path))
    base = corpus_seed(seed, run) * 1_000_003
    for i in range(CORPUS):
        dataset = generate_dataset(random_spec(base + i))
        rec = advisor.recommend(dataset, accuracy_weight=1.0)
        if rec.model not in rec.model_names:
            return f"run {run}: member {i} got unknown model {rec.model!r}"
        scale = max(1.0, float(np.linalg.norm(advisor.rcs.embeddings[i])))
        if (int(rec.neighbor_indices[0]) != i
                or rec.neighbor_distances[0] > 1e-4 * scale):
            return (f"run {run}: member {i} is not its own nearest neighbor "
                    f"({rec.neighbor_indices[0]}, "
                    f"{rec.neighbor_distances[0]:.3g})")
    return None


def run(seed: int, seconds: float, work: Path, log) -> dict:
    runs: list[dict] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        result = _train_once(seed, work, len(runs))
        runs.append(result)
        if not result["ok"]:
            failures.append(f"run {result['run']}: {result['error']}")
    for result in runs:
        if result["ok"]:
            problem = _check_advisor(seed, result["run"], result["out"])
            if problem:
                result["ok"] = False
                failures.append(problem)
    good = [r for r in runs if r["ok"]]
    if not good:
        raise RuntimeError("no train run succeeded: " + "; ".join(failures))
    work_times = [r["work_s"] for r in good]
    log(f"train: {len(runs)} runs of `repro train --fast --corpus {CORPUS}`, "
        f"{len(good)} succeeded")
    log(f"  set-up (launch -> first line): "
        f"{summarize_ms([r['setup_s'] for r in good])}")
    log(f"  work per run (first line -> exit): {summarize_ms(work_times)}")
    for problem in failures:
        log(f"  FAILED {problem}")
    return {
        "attempted": len(runs), "failed": len(runs) - len(good),
        "metrics": {
            "setup_s": median([r["setup_s"] for r in good]),
            "peak_rss_mb": median([r["rss_mb"] for r in good]),
            # Median over runs: a run slowed by other load on the machine
            # moves it less than it moves a pooled rate.
            "throughput_per_s": median([CORPUS / t for t in work_times]),
            "p50_ms": median(work_times) * 1000.0,
            "p95_ms": percentile(work_times, 95) * 1000.0,
        },
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _replay(seed: int, runs: int, work: Path, tracer: Tracer) -> tuple[float, list]:
    """``cmd_train`` through its layer calls; returns (wall s, labels)."""
    from repro.cli import fast_testbed_config
    from repro.core.advisor import AutoCE, AutoCEConfig
    from repro.core.graph import build_feature_graph
    from repro.core.persistence import save_advisor
    from repro.datagen.multi_table import generate_dataset
    from repro.datagen.spec import random_spec
    from repro.testbed.runner import run_testbed
    from repro.workload.generator import generate_workload

    labels = []
    seeds = [corpus_seed(seed, run_index) for run_index in range(runs)]
    start = time.perf_counter()
    for run_index, train_seed in enumerate(seeds):
        testbed = fast_testbed_config(train_seed)
        with tracer.span("train", request=run_index):
            graphs, corpus_labels = [], []
            for i in range(CORPUS):
                with tracer.span("datagen.generate"):
                    dataset = generate_dataset(
                        random_spec(train_seed * 1_000_003 + i))
                with tracer.span("features.featurize"):
                    graphs.append(build_feature_graph(dataset))
                with tracer.span("workload.generate"):
                    workload = generate_workload(
                        dataset, num_train=testbed.num_train_queries,
                        num_test=testbed.num_test_queries, seed=testbed.seed)
                with tracer.span("testbed.label"):
                    corpus_labels.append(run_testbed(
                        dataset, workload=workload, config=testbed))
            with tracer.span("dml.fit"):
                advisor = AutoCE(AutoCEConfig(seed=train_seed))
                advisor.fit_graphs(graphs, corpus_labels)
            with tracer.span("persistence.save"):
                save_advisor(advisor, str(work / f"replay_{run_index}.npz"))
        labels.extend(corpus_labels)
    return time.perf_counter() - start, labels


def traced(seed: int, seconds: float, work: Path, log) -> dict:
    from layers import cli_import_s, empty_layer_metrics, model_metric_names

    # Size the replay from one untraced corpus so the untraced and traced
    # passes together fill the time budget; both replay the same corpora.
    probe_wall, _ = _replay(seed, 1, work, Tracer(enabled=False))
    runs = max(MIN_RUNS, int(seconds / 2 / max(probe_wall, 1e-3)))
    untraced_wall, _ = _replay(seed, runs, work, Tracer(enabled=False))
    tracer = Tracer()
    traced_wall, labels = _replay(seed, runs, work, tracer)

    metrics = empty_layer_metrics()
    self_s = tracer.self_times()
    datasets = runs * CORPUS
    metrics["cli.import_s"] = cli_import_s()
    metrics["datagen.generate_s"] = tracer.totals("datagen.generate")[0] / datasets
    metrics["workload.generate_s"] = tracer.totals("workload.generate")[0] / datasets
    metrics["testbed.label_s"] = tracer.totals("testbed.label")[0] / datasets
    metrics["features.featurize_ms"] = (
        tracer.totals("features.featurize")[0] / datasets * 1000.0)
    metrics["dml.fit_s"] = tracer.totals("dml.fit")[0] / runs
    metrics["persistence.save_s"] = tracer.totals("persistence.save")[0] / runs
    for name, fit_key, infer_key in model_metric_names():
        fits = [float(label.fit_times[i]) for label in labels
                for i, model in enumerate(label.model_names) if model == name]
        infers = [float(label.latency_means[i]) for label in labels
                  for i, model in enumerate(label.model_names) if model == name]
        if fits:
            metrics[fit_key] = sum(fits) / len(fits)
            metrics[infer_key] = sum(infers) / len(infers) * 1e6
    layer_self = sum(t for name, t in self_s.items() if name != "train")
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    metrics["trace.accounted_ratio"] = layer_self / untraced_wall
    log(f"train (traced): {runs} corpora of {CORPUS}, untraced replay "
        f"{untraced_wall:.3f} s, traced {traced_wall:.3f} s")
    return {"tracer": tracer, "metrics": metrics, "attempted": runs,
            "failed": 0, "walls": (untraced_wall, traced_wall, layer_self)}
