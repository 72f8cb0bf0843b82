"""``optimize`` workload: the advisor inside the query optimizer.

The closed loop of ``benchmarks/bench_e2e_loop.py`` at benchmark scale.
Twelve datasets are generated from ``--seed``: four large single tables,
where estimator inference and scans dominate, and eight 3-5-table schemas
on correlated, skewed data, where join enumeration, misestimation and
execution dominate.  Each gets a seeded stream of SPJ queries with their
true cardinalities.

Set-up (timed, repeated ``SETUPS`` times): fit the candidate CE models on
every dataset, label each dataset by the true cost of the plans each
candidate yields on its training queries (accuracy) and by its inference
time (efficiency), train the advisor on those labels and let it pick a
model per dataset (``AdvisorProvider.pick`` at ``ACCURACY_WEIGHT``).

Measured: the interleaved query stream is planned through each dataset's
``AdvisorProvider`` and executed, pass after pass (the provider memo is
cleared between passes), until ``--seconds`` have passed.  Every executed
plan must return the query's true cardinality.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import serve
from harness import (Tracer, median, percentile, self_peak_rss_mb,
                     summarize_ms)

#: The advisor's pick pool: the histogram default plus three learned
#: models that are cheap to fit and differ in estimate quality.
POOL = ("PostgreSQL", "BayesCard", "LW-XGB", "MSCN")
#: Test queries per dataset in the stream; training queries per dataset.
STREAM_QUERIES = 100
TRAIN_QUERIES = 60
#: Training queries whose plans label a dataset for the advisor.
LABEL_QUERIES = 20
SETUPS = 3
SAMPLE_SIZE = 400

#: Dataset shapes: sizes are fixed so that runs with different seeds do
#: comparable work; data distributions, correlations and queries vary.
SINGLE = {"num_tables": (1, 1), "rows": (100_000, 100_000),
          "columns_per_table": (5, 5), "domain": (150, 150),
          "skew": (0.5, 0.5), "max_correlation": (0.5, 0.5),
          "interaction": (0.5, 0.5)}
CORRELATED = {"rows": (20_000, 20_000), "columns_per_table": (4, 4),
              "skew": (0.85, 0.85), "max_correlation": (0.9, 0.9),
              "interaction": (0.8, 0.8), "fanout_skew": (0.9, 0.9),
              "join_correlation": (0.6, 0.6), "domain": (24, 24)}
SHAPES = ((SINGLE,) * 4
          + tuple({**CORRELATED, "num_tables": (n, n)}
                  for n in (3, 3, 4, 4, 4, 4, 5, 5)))
#: Every connected table subset is a query template, so the mix of join
#: sizes depends only on the schema, not on which templates a seed drew.
MAX_TEMPLATES = 64
#: w_a of the picks: accuracy first, inference speed breaks near-ties.
ACCURACY_WEIGHT = 0.9


def make_inputs(seed: int, tracer: Tracer) -> list[tuple]:
    """[(dataset, workload)] for every shape in ``SHAPES``."""
    from repro.datagen.multi_table import generate_dataset
    from repro.datagen.spec import random_spec
    from repro.workload.generator import generate_workload

    inputs = []
    for i, ranges in enumerate(SHAPES):
        with tracer.span("datagen.generate"):
            dataset = generate_dataset(random_spec(seed * 101 + i,
                                                   ranges=ranges))
        with tracer.span("workload.generate"):
            workload = generate_workload(
                dataset, num_train=TRAIN_QUERIES, num_test=STREAM_QUERIES,
                seed=seed * 101 + 50 + i, max_templates=MAX_TEMPLATES)
        inputs.append((dataset, workload))
    return inputs


def _sub_templates(dataset, queries) -> list[tuple[str, ...]]:
    templates = set()
    for query in queries:
        tables = set(query.tables)
        for candidate in dataset.connected_subsets():
            if set(candidate) <= tables:
                templates.add(candidate)
    return sorted(templates)


def _fit_models(dataset, workload, tracer: Tracer) -> dict:
    from repro.ce.base import TrainingContext
    from repro.ce.bayescard import BayesCard, BayesCardConfig
    from repro.ce.lwxgb import LWXGB, LWXGBConfig
    from repro.ce.mscn import MSCN, MSCNConfig
    from repro.ce.postgres import PostgresEstimator
    from repro.ce.template_base import TemplateModel

    ctx = TrainingContext.build(dataset, workload, seed=0,
                                sample_size=SAMPLE_SIZE)
    templates = _sub_templates(dataset, workload.train + workload.test)
    models = {"PostgreSQL": PostgresEstimator(),
              "BayesCard": BayesCard(BayesCardConfig(seed=0)),
              "LW-XGB": LWXGB(LWXGBConfig(seed=0)),
              "MSCN": MSCN(MSCNConfig(epochs=8, seed=0))}
    for name, model in models.items():
        with tracer.span(f"ce.fit.{name}"):
            model.fit(ctx)
            if isinstance(model, TemplateModel):
                model.prepare_templates(templates)
    return models


def _true_cost(plans, dataset, oracle) -> float:
    from repro.engine import recost_plan
    return sum(recost_plan(p.plan, dataset, oracle) for p in plans)


def setup(inputs, tracer: Tracer) -> list[dict]:
    """Fit candidates, label, train the advisor, pick per dataset."""
    from repro.core.advisor import AutoCE, AutoCEConfig
    from repro.core.dml import DMLConfig
    from repro.engine import (AdvisorProvider, ModelProvider, Optimizer,
                              TrueCardProvider)
    from repro.testbed.scores import ScoreLabel

    sites = []
    for dataset, workload in inputs:
        models = _fit_models(dataset, workload, tracer)
        optimizer = Optimizer(dataset)
        oracle = TrueCardProvider(dataset)
        label_queries = workload.train[:LABEL_QUERIES]
        costs, latencies = [], []
        with tracer.span("advisor.label"):
            for name in POOL:
                provider = ModelProvider(models[name])
                plans = [optimizer.plan(q, provider) for q in label_queries]
                costs.append(_true_cost(plans, dataset, oracle))
                latencies.append(max(provider.stats.elapsed_s, 1e-9))
        costs, latencies = np.array(costs), np.array(latencies)
        sites.append({"dataset": dataset, "workload": workload,
                      "models": models, "oracle": oracle,
                      "label": ScoreLabel(POOL, costs.min() / costs,
                                          latencies.min() / latencies)})
    advisor = AutoCE(AutoCEConfig(
        hidden_dim=16, embedding_dim=8, knn_k=1, use_incremental=False,
        dml=DMLConfig(epochs=4, batch_size=4), seed=0))
    with tracer.span("features.featurize"):
        graphs = [advisor.featurize(site["dataset"]) for site in sites]
    with tracer.span("dml.fit"):
        advisor.fit_graphs(graphs, [site["label"] for site in sites])
    for site, graph in zip(sites, graphs):
        provider = AdvisorProvider(advisor, graph, site["models"],
                                   accuracy_weight=ACCURACY_WEIGHT)
        with tracer.span("advisor.select"):
            provider.pick()
        site["provider"] = provider
    return sites


def stream_order(inputs, seed: int) -> list[tuple[int, int]]:
    """The interleaved (dataset, query) stream."""
    order = [(d, q) for d, (_, workload) in enumerate(inputs)
             for q in range(len(workload.test))]
    rng = np.random.default_rng(seed + 7)
    return [order[i] for i in rng.permutation(len(order))]


def run_pass(sites, order, tracer: Tracer, out: dict) -> None:
    """Plan and execute every query of the stream once."""
    from repro.engine import Executor, Optimizer

    for site in sites:
        site.setdefault("optimizer", Optimizer(site["dataset"]))
        site.setdefault("executor", Executor(site["dataset"]))
        site["provider"].clear_memo()
    for d, q in order:
        site = sites[d]
        query = site["workload"].test[q]
        provider = site["provider"]
        before = provider.stats.elapsed_s
        start = time.perf_counter()
        with tracer.span("query", request=len(out["latency"])):
            with tracer.span("optimizer.plan"):
                planned = site["optimizer"].plan(query, provider)
            with tracer.span("execution.execute"):
                outcome = site["executor"].execute(planned.plan)
        out["latency"].append(time.perf_counter() - start)
        out["infer_s"] += provider.stats.elapsed_s - before
        out["rows"] += outcome.rows
        if outcome.rows != query.true_cardinality:
            out["wrong"].append((site["dataset"].name, q, outcome.rows,
                                 query.true_cardinality))
        if "plans" in out:
            out["plans"].append((d, q, planned))


def plan_cost_ratio(sites, plans) -> tuple[float, float]:
    """True cost of the chosen plans and of the TrueCard plans."""
    chosen = truecard = 0.0
    for d, q, planned in plans:
        site = sites[d]
        best = site["optimizer"].plan(site["workload"].test[q], site["oracle"])
        chosen += _true_cost([planned], site["dataset"], site["oracle"])
        truecard += _true_cost([best], site["dataset"], site["oracle"])
    return chosen, truecard


def _new_out(keep_plans: bool) -> dict:
    out = {"latency": [], "infer_s": 0.0, "rows": 0, "wrong": []}
    if keep_plans:
        out["plans"] = []
    return out


def run(seed: int, seconds: float, work: Path, log) -> dict:
    off = Tracer(enabled=False)
    inputs = make_inputs(seed, off)
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        sites = setup(inputs, off)
        setups.append(time.perf_counter() - start)
    order = stream_order(inputs, seed)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        out = _new_out(keep_plans=not passes)
        run_pass(sites, order, off, out)
        passes.append(out)
    latency = [s for out in passes for s in out["latency"]]
    wrong = [w for out in passes for w in out["wrong"]]
    chosen, truecard = plan_cost_ratio(sites, passes[0]["plans"])
    # The TrueCard plan is the cheapest under true cardinalities, so no
    # chosen plan can cost less.
    checks_ok = chosen >= truecard * (1 - 1e-9)
    picks = sorted(site["provider"].picked for site in sites)
    log(f"optimize: {len(passes)} passes over {len(order)} queries "
        f"({len(latency)} executed); picks {picks}")
    log(f"  set-up (fit + label + advisor + pick): "
        f"{', '.join(f'{s:.3f}' for s in setups)} s")
    log(f"  per query (plan + inference + execution): {summarize_ms(latency)}")
    log(f"  plan cost ratio vs TrueCard: {chosen / truecard:.4f}")
    for name, q, rows, true in wrong[:5]:
        log(f"  FAILED {name} query {q}: {rows} rows, true cardinality {true}")
    if not checks_ok:
        log("  FAILED chosen plans cost less than the TrueCard plans")
    # Each pass is the same work, so per-pass figures are comparable and
    # their median shrugs off a pass slowed by other load on the machine.
    return {
        "attempted": len(latency), "failed": len(wrong),
        "checks_ok": checks_ok,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": self_peak_rss_mb(),
            "throughput_per_s": median(
                [len(out["latency"]) / sum(out["latency"]) for out in passes]),
            "p50_ms": median([median(out["latency"]) for out in passes]) * 1000.0,
            "p95_ms": median([percentile(out["latency"], 95)
                              for out in passes]) * 1000.0,
        },
    }


def traced(seed: int, seconds: float, work: Path, log) -> dict:
    from layers import cli_import_s, empty_layer_metrics, model_metric_names

    tracer = Tracer()
    inputs = make_inputs(seed, tracer)
    sites = setup(inputs, tracer)
    order = stream_order(inputs, seed)
    # Untraced and traced passes over the same stream, alternating, for
    # half the budget; the serving replay below takes the other half.
    untraced, traced_out = _new_out(False), _new_out(True)
    off = Tracer(enabled=False)
    # Warm-up pass: the executors build their sorted column indexes lazily.
    run_pass(sites, order, off, _new_out(False))
    deadline = time.perf_counter() + seconds / 2
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        run_pass(sites, order, off, untraced)
        run_pass(sites, order, tracer, traced_out)
        passes += 1
    n = len(traced_out["latency"])
    metrics = empty_layer_metrics()
    metrics["cli.import_s"] = cli_import_s()
    metrics["datagen.generate_s"] = tracer.totals("datagen.generate")[0] / len(inputs)
    metrics["workload.generate_s"] = tracer.totals("workload.generate")[0] / len(inputs)
    metrics["dml.fit_s"] = tracer.totals("dml.fit")[0]
    for name, fit_key, _ in model_metric_names():
        total, count = tracer.totals(f"ce.fit.{name}")
        if count:
            metrics[fit_key] = total / count
    metrics["advisor.select_ms"] = (
        tracer.totals("advisor.select")[0] / len(sites) * 1000.0)
    stats = [site["provider"].stats for site in sites]
    calls = sum(s.calls for s in stats)
    # Provider counters accumulate over every pass (clear_memo keeps
    # them), untraced and traced alike.
    metrics["providers.infer_ms"] = traced_out["infer_s"] / n * 1000.0
    metrics["providers.calls_per_query"] = calls / (2 * n + len(order))
    metrics["providers.memo_hit_ratio"] = (
        sum(s.memo_hits for s in stats) / calls if calls else 0.0)
    metrics["providers.fallbacks"] = float(sum(s.fallbacks for s in stats))
    plan_s = tracer.totals("optimizer.plan")[0]
    metrics["optimizer.plan_self_ms"] = (plan_s - traced_out["infer_s"]) / n * 1000.0
    metrics["execution.execute_ms"] = tracer.totals("execution.execute")[0] / n * 1000.0
    metrics["execution.rows_per_query"] = traced_out["rows"] / n
    chosen, truecard = plan_cost_ratio(sites, traced_out["plans"][:len(order)])
    metrics["optimizer.plan_cost_ratio"] = chosen / truecard
    untraced_s = sum(untraced["latency"])
    traced_s = tracer.totals("query")[0]
    layer_self = sum(t for name, t in tracer.self_times().items()
                     if name in ("optimizer.plan", "execution.execute"))
    wrong = traced_out["wrong"] + untraced["wrong"]
    log(f"optimize (traced): {passes} untraced + {passes} traced passes over "
        f"{len(order)} queries")
    # The serving layers (db.io, embedding cache, search, batching,
    # persistence.load) are traced here: the serve workload itself is too
    # noisy on a small shared machine to be a listed workload.
    serving = serve.traced_layers(seed, seconds, work, log, tracer)
    metrics.update(serving["metrics"])
    walls = tuple(a + b for a, b in zip((untraced_s, traced_s, layer_self),
                                        serving["walls"]))
    metrics["trace.overhead_ratio"] = walls[1] / walls[0] - 1.0
    metrics["trace.accounted_ratio"] = walls[2] / walls[0]
    return {"tracer": tracer, "metrics": metrics,
            "attempted": 2 * n + serving["served"], "failed": len(wrong),
            "walls": walls}
