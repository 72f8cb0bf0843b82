"""``serve`` workload: ``repro serve --daemon`` under open-loop load.

Not listed in ``BENCHMARK.json``: on the 2-vCPU virtual machine the
benchmark was tuned on, its latencies and drain rate moved by 20-45%
between runs on the same inputs (host scheduling jitter on every
cross-process wake-up), beyond the 25% bound a listed metric may have.
Run it by hand with ``--workload serve``.  Its layers are traced by the
``optimize`` workload's traced run, which calls :func:`traced_layers`.

Inputs, all made from ``--seed`` outside the timed region:

* an advisor file whose RCS holds 8192 family-structured members: 50
  generated base datasets (ten each of 1-5 tables) are featurized, the
  advisor is trained on them, and each family gets 8192/50 members whose
  feature graphs perturb the base's by 15% and whose labels jitter the
  base label by 10%.  At this size and spread the daemon's auto-selected
  index is E2LSH, so an ANN index is on the search path;
* request files: perturbed copies of the base datasets (2% of one data
  column shifted), each a distinct dataset;
* a request stream in which each request is a file never served before
  with probability ``MISS_SHARE`` (an embedding-cache miss) and otherwise
  a repeat of an earlier request (a hit).

One client process sends the stream open-loop from a single thread and
times each request from when it was due.  The daemon runs with its
default settings.  Phases: an untimed warm-up, a low fixed rate the
current code sustains comfortably (p50/p95 latency), then backlog bursts
whose drain rate is the highest rate served without a growing backlog.
"""

from __future__ import annotations

import os
import select
import subprocess
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

from harness import (Tracer, child_env, median, percentile, program_cmd,
                     reap, stop, summarize_ms)

#: Base datasets; their table counts cycle through 1-5.
BASES = 50
RCS_SIZE = 8192
#: Relative noise of a family member's features around its base.  At
#: 15% the daemon's recall probe settles on E2LSH for every seed tried;
#: tighter families (2-5%) flip it to the sign-hash ANNIndex.
MEMBER_NOISE = 0.15
#: Share of requests that ask for a dataset the daemon has not seen.
MISS_SHARE = 0.2
#: Distinct request files written per run (enough for the miss share of
#: the about 1100 requests of a run; later requests are all repeats).
FRESH_FILES = 300
#: Offered rate of the fixed-rate phase (requests/s): low enough that the
#: coalescer is mostly idle and queueing does not amplify the host's
#: scheduling noise into the tail.
FIXED_RATE = 20.0
#: Untimed warm-up at the fixed rate before it is measured: the daemon's
#: first requests pay page faults and lazy start-up that later ones skip.
WARMUP_S = 2.0
#: Backlog bursts: each sends ``BURST_REQUESTS`` at ``BURST_RATE``, far
#: above what the daemon sustains, so it drains a standing backlog in full
#: micro-batches.  The drain rate is the highest rate it serves without a
#: growing backlog; the run reports the median of ``BURSTS`` bursts.
BURST_REQUESTS = 300
BURST_RATE = 1000.0
BURSTS = 3
#: Daemon launches per run for the set-up median (the last one serves).
LAUNCHES = 4
#: How long to wait for straggling answers after a phase's last request.
GRACE_S = 10.0
WEIGHT = 1.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _variant(dataset, index: int, rng: np.random.Generator):
    """A distinct copy of ``dataset``: 2% of one data column shifted down."""
    from repro.db.schema import Dataset
    from repro.db.table import Table

    tables = []
    for table in dataset.tables.values():
        columns = dict(table.columns)
        data = table.data_columns()
        if data:
            column = data[index % len(data)]
            values = columns[column].copy()
            rows = rng.integers(0, len(values), size=max(1, len(values) // 50))
            values[rows] = np.maximum(values[rows] - 1, 0)
            columns[column] = values
        tables.append(Table(table.name, columns))
    return Dataset(f"{dataset.name}_r{index}", tables, dataset.foreign_keys)


def prepare(seed: int, work: Path) -> dict:
    """Write the advisor file and the request files for ``seed``."""
    from repro.ce.registry import CANDIDATE_MODELS
    from repro.core.advisor import AutoCE, AutoCEConfig
    from repro.core.dml import DMLConfig
    from repro.core.graph import FeatureGraph
    from repro.core.persistence import save_advisor
    from repro.datagen.multi_table import generate_dataset
    from repro.datagen.spec import random_spec
    from repro.db.io import save_dataset
    from repro.testbed.scores import ScoreLabel

    rng = np.random.default_rng(seed)
    models = tuple(CANDIDATE_MODELS)
    bases = [generate_dataset(random_spec(
        seed * 10_007 + i, ranges={"num_tables": (1 + i % 5, 1 + i % 5)}))
        for i in range(BASES)]
    advisor = AutoCE(AutoCEConfig(seed=seed, use_incremental=False,
                                  dml=DMLConfig(epochs=10)))
    graphs = advisor.featurize_many(bases)
    base_sa = rng.uniform(0.1, 1.0, size=(BASES, len(models)))
    base_se = rng.uniform(0.1, 1.0, size=(BASES, len(models)))
    advisor.fit_graphs(graphs, [ScoreLabel(models, base_sa[f], base_se[f])
                                for f in range(BASES)])
    members, labels = [], []
    for m in range(RCS_SIZE):
        f = m % BASES
        base = graphs[f]
        noise = 1.0 + MEMBER_NOISE * rng.normal(size=base.vertices.shape)
        members.append(FeatureGraph(f"{base.name}_m{m}",
                                    base.vertices * noise, base.edges))
        labels.append(ScoreLabel(
            models,
            np.clip(base_sa[f] * rng.uniform(0.9, 1.1, len(models)), 0, 1),
            np.clip(base_se[f] * rng.uniform(0.9, 1.1, len(models)), 0, 1)))
    # Attach the family members as the served corpus: the encoder stays
    # the one trained on the bases, the RCS embeds all 8192 members.
    advisor._graphs, advisor._labels = members, labels
    advisor._rebuild_rcs()
    advisor_path = work / "advisor.npz"
    save_advisor(advisor, str(advisor_path))

    requests = work / "requests"
    requests.mkdir()
    files = []
    for j in range(FRESH_FILES):
        dataset = _variant(bases[j % BASES], j, rng)
        path = requests / f"{dataset.name}.npz"
        save_dataset(dataset, str(path))
        files.append((str(path), dataset.name))
    return {"advisor": advisor_path, "files": files,
            "index": type(advisor.rcs.index).__name__}


class RequestStream:
    """Seeded stream of (path, name): fresh files or repeats of earlier ones."""

    def __init__(self, files: list[tuple[str, str]], seed: int):
        self.files = files
        self.rng = np.random.default_rng(seed + 1)
        self.used = 0

    def next(self) -> tuple[str, str]:
        fresh = self.used == 0 or self.rng.random() < MISS_SHARE
        if fresh and self.used < len(self.files):
            self.used += 1
            return self.files[self.used - 1]
        return self.files[int(self.rng.integers(0, self.used))]


# ----------------------------------------------------------------------
# The daemon under test
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve --daemon`` child driven from a single thread."""

    READY = "daemon: reading dataset paths"

    def __init__(self, advisor: Path):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            program_cmd("serve", "--daemon", "--advisor", str(advisor)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=child_env(), bufsize=0)
        self.out_fd = self.proc.stdout.fileno()
        self.err_fd = self.proc.stderr.fileno()
        self.in_fd = self.proc.stdin.fileno()
        self.buffers = {self.out_fd: b"", self.err_fd: b""}
        self.tail: list[str] = []
        self.errors: list[str] = []
        try:
            self.ready_s = self._wait_ready()
        except BaseException:
            stop(self.proc)
            for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
                pipe.close()
            raise

    def _wait_ready(self, timeout: float = 120.0) -> float:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for stream, line, _ in self.poll(1.0):
                if stream == "out" and line.startswith(self.READY):
                    return time.perf_counter() - self.started
                if stream == "err":
                    self.errors.append(line)
            if self.proc.poll() is not None:
                break
        raise RuntimeError("daemon never became ready: "
                           + " | ".join(self.errors[-3:]))

    def poll(self, timeout: float) -> list[tuple[str, str, float]]:
        """Lines that arrived within ``timeout`` s: (stream, line, time)."""
        fds = [fd for fd in (self.out_fd, self.err_fd) if fd in self.buffers]
        if not fds:
            time.sleep(max(timeout, 0.0))
            return []
        ready, _, _ = select.select(fds, [], [], max(timeout, 0.0))
        now = time.perf_counter()
        lines = []
        for fd in ready:
            kind = "out" if fd == self.out_fd else "err"
            chunk = os.read(fd, 65536)
            if not chunk:
                # EOF: the daemon closed this stream.
                rest = self.buffers.pop(fd)
                if rest:
                    lines.append((kind, rest.decode(errors="replace"), now))
                continue
            *complete, self.buffers[fd] = (self.buffers[fd] + chunk).split(b"\n")
            lines.extend((kind, raw.decode(errors="replace"), now)
                         for raw in complete)
        return lines

    def send(self, path: str) -> None:
        os.write(self.in_fd, (path + "\n").encode())

    def close(self, timeout: float = 60.0) -> tuple[int, float]:
        """EOF the daemon, collect its summary lines, reap it."""
        self.proc.stdin.close()
        deadline = time.perf_counter() + timeout
        while self.buffers and time.perf_counter() < deadline:
            for stream, line, _ in self.poll(0.5):
                (self.tail if stream == "out" else self.errors).append(line)
        try:
            return reap(self.proc)
        finally:
            stop(self.proc)
            self.proc.stdout.close()
            self.proc.stderr.close()


class Phase:
    """Open-loop load: send at fixed due times, match answers by name."""

    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self.outstanding: dict[str, deque] = {}
        self.answers: dict[int, tuple[str, float]] = {}
        self.due: list[float] = []
        self.names: list[str] = []
        self.lateness: list[float] = []
        self.failed = 0
        self.extra = 0

    def _absorb(self, lines) -> None:
        for stream, line, when in lines:
            if " -> " not in line:
                if stream == "err" and line.strip():
                    self.daemon.errors.append(line)
                continue
            key, _, answer = line.strip().rpartition(" -> ")
            key = key.strip()
            if stream == "err":
                # "<path> -> ERROR: ..." — a failed request.
                self.daemon.errors.append(line)
                key = Path(key).stem
            queue = self.outstanding.get(key)
            if not queue:
                self.extra += 1
                continue
            request = queue.popleft()
            if stream == "err":
                self.failed += 1
            else:
                self.answers[request] = (answer, when)

    def run(self, stream: RequestStream, rate: float, duration: float) -> None:
        """Offer ``rate`` requests/s for ``duration`` s, then drain."""
        count = max(1, int(round(rate * duration)))
        start = time.perf_counter() + 0.01
        for i in range(count):
            due = start + i / rate
            while True:
                wait = due - time.perf_counter()
                if wait <= 0:
                    break
                self._absorb(self.daemon.poll(wait))
            path, name = stream.next()
            request = len(self.due)
            self.due.append(due)
            self.names.append(name)
            self.outstanding.setdefault(name, deque()).append(request)
            self.daemon.send(path)
            self.lateness.append(time.perf_counter() - due)
        deadline = time.perf_counter() + GRACE_S
        while (any(self.outstanding.values())
               and time.perf_counter() < deadline):
            self._absorb(self.daemon.poll(0.2))
        # Unanswered after the grace period: timeouts.
        missing = sum(len(q) for q in self.outstanding.values())
        self.failed += missing
        self.outstanding.clear()

    def latencies(self) -> list[float]:
        return [self.answers[i][1] - self.due[i]
                for i in range(len(self.due)) if i in self.answers]


def _burst(daemon: Daemon, stream: RequestStream, log) -> tuple[float, Phase]:
    """One backlog burst: answers per second from first send to last answer."""
    phase = Phase(daemon)
    phase.run(stream, BURST_RATE, BURST_REQUESTS / BURST_RATE)
    done = [when for _, when in phase.answers.values()]
    rate = len(done) / (max(done) - phase.due[0]) if done else 0.0
    log(f"  burst of {len(phase.due)}: {rate:.1f} answers/s, "
        f"{phase.failed + phase.extra} failed")
    return rate, phase


def _expected_picks(advisor_path: Path, files: dict[str, str]) -> tuple[dict, dict]:
    """In-process picks on the same advisor file: the daemon's path
    (``recommend_batch``) and an exact search over the whole RCS."""
    from repro.core.persistence import load_advisor
    from repro.db.io import load_dataset

    advisor = load_advisor(str(advisor_path))
    names = sorted(files)
    datasets = [load_dataset(files[name]) for name in names]
    served = {}
    for i in range(0, len(datasets), 16):
        for name, rec in zip(names[i:i + 16], advisor.recommend_batch(
                datasets[i:i + 16], accuracy_weight=WEIGHT)):
            served[name] = rec.model
    queries = np.asarray(advisor.embed_many(datasets), dtype=np.float64)
    rows = np.asarray(advisor.rcs.embeddings, dtype=np.float64)
    k = min(advisor.config.knn_k, len(rows))
    exact = {}
    scores = advisor.rcs.score_matrix(WEIGHT)
    model_names = advisor.rcs.model_names
    for name, query in zip(names, queries):
        distances = ((rows - query) ** 2).sum(axis=1)
        nearest = np.lexsort((np.arange(len(rows)), distances))[:k]
        exact[name] = model_names[int(np.argmax(scores[nearest].mean(axis=0)))]
    return served, exact


def run(seed: int, seconds: float, work: Path, log) -> dict:
    inputs = prepare(seed, work)
    stream = RequestStream(inputs["files"], seed)
    fixed_s = max(200 / FIXED_RATE, 0.5 * seconds)
    setups = []
    for _ in range(LAUNCHES - 1):
        daemon = Daemon(inputs["advisor"])
        setups.append(daemon.ready_s)
        daemon.close()
    daemon = Daemon(inputs["advisor"])
    setups.append(daemon.ready_s)
    try:
        warmup = Phase(daemon)
        warmup.run(stream, FIXED_RATE, WARMUP_S)
        fixed = Phase(daemon)
        fixed.run(stream, FIXED_RATE, fixed_s)
        log(f"serve: {FIXED_RATE:g} rps for {fixed_s:g} s: "
            f"{summarize_ms(fixed.latencies())}")
        rates, bursts = [], []
        for _ in range(BURSTS):
            rate, burst = _burst(daemon, stream, log)
            rates.append(rate)
            bursts.append(burst)
    finally:
        code, rss = daemon.close()
    phases = [warmup, fixed] + bursts
    failures = sum(p.failed + p.extra for p in phases)
    attempted = sum(len(p.due) for p in phases)

    served = [(p.names[i], p.answers[i][0]) for p in phases
              for i in range(len(p.due)) if i in p.answers]
    summary = next((line for line in daemon.tail
                    if line.startswith("served ")), "")
    checks_ok = code == 0 and summary.startswith(f"served {len(served)} ")
    if not checks_ok:
        log(f"  FAILED daemon exit {code}, summary {summary!r}, "
            f"{len(served)} answers")
    files = {name: path for path, name in inputs["files"][:stream.used]}
    expected, exact = _expected_picks(inputs["advisor"], files)
    mismatched = sum(1 for name, model in served if expected[name] != model)
    agreement = sum(1 for name, model in served
                    if exact[name] == model) / max(1, len(served))
    lateness = [s for p in phases for s in p.lateness]
    log(f"  daemon set-up (launch -> ready): "
        f"{', '.join(f'{s:.3f}' for s in setups)} s; index {inputs['index']}")
    for line in daemon.tail:
        log(f"  daemon: {line}")
    log(f"  generator lateness: {summarize_ms(lateness)}, "
        f"max {max(lateness) * 1000:.3f} ms")
    log(f"  picks: {mismatched} differ from in-process recommend_batch; "
        f"agreement with exact search {agreement:.4f} over {len(served)}")
    fixed_ms = [s * 1000.0 for s in fixed.latencies()]
    if not fixed_ms:
        raise RuntimeError("no request of the fixed-rate phase was answered")
    return {
        "attempted": attempted, "failed": failures + mismatched,
        "checks_ok": checks_ok,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "throughput_per_s": median(rates),
            "p50_ms": median(fixed_ms),
            "p95_ms": percentile(fixed_ms, 95),
        },
    }


# ----------------------------------------------------------------------
# Traced run: the daemon's loop replayed in-process
# ----------------------------------------------------------------------
INDEX_CODES = {"ExactIndex": 0, "NoneType": 0, "ANNIndex": 1, "E2LSHIndex": 2}


def _replay(advisor_path: Path, files, seed: int, schedule, tracer: Tracer
            ) -> dict:
    """Serve ``schedule`` [(rate, duration)] through the daemon's calls.

    A sender thread writes request paths into a pipe at their due times;
    this thread coalesces the pipe with the daemon's ``iter_batches`` and
    serves each batch with ``load_dataset`` -> ``featurize_many`` ->
    ``embed_many`` -> ``KNNPredictor.recommend_batch``.
    """
    from repro.core.persistence import load_advisor
    from repro.db.io import load_dataset
    from repro.serving import BatchingConfig, iter_batches

    with tracer.span("persistence.load"):
        advisor = load_advisor(str(advisor_path))
    advisor.config.featurize_workers = 0  # the CLI's --workers default
    stream = RequestStream(files, seed)
    due: list[float] = []
    read_fd, write_fd = os.pipe()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        with os.fdopen(write_fd, "w") as pipe:
            offset = start
            for rate, duration in schedule:
                for i in range(max(1, int(round(rate * duration)))):
                    when = offset + i / rate
                    time.sleep(max(0.0, when - time.perf_counter()))
                    path, _ = stream.next()
                    due.append(when)
                    pipe.write(f"{len(due) - 1} {path}\n")
                    pipe.flush()
                offset += duration

    thread = threading.Thread(target=sender)
    thread.start()
    waits, sizes, busy = [], [], 0.0
    fallback_queries, served = 0.0, 0
    picks: list[tuple[str, str]] = []
    try:
        with os.fdopen(read_fd, "r") as pipe:
            for batch_index, batch in enumerate(
                    iter_batches(pipe, BatchingConfig())):
                began = time.perf_counter()
                ids = [int(line.split(" ", 1)[0]) for line in batch]
                waits.extend(began - due[i] for i in ids)
                sizes.append(len(batch))
                with tracer.span("serve.batch", request=batch_index):
                    datasets = []
                    for line in batch:
                        with tracer.span("db.load"):
                            datasets.append(load_dataset(line.split(" ", 1)[1]))
                    with tracer.span("features.featurize"):
                        graphs = advisor.featurize_many(datasets)
                    with tracer.span("encoder.embed"):
                        embeddings = advisor.embed_many(graphs)
                    with tracer.span("search"):
                        recs = advisor.predictor.recommend_batch(
                            embeddings, advisor.rcs, WEIGHT)
                    picks.extend((d.name, rec.model)
                                 for d, rec in zip(datasets, recs))
                index = advisor.rcs.index
                fallback_queries += len(batch) * float(
                    getattr(index, "last_fallback_fraction", 1.0))
                busy += time.perf_counter() - began
                served += len(batch)
    finally:
        thread.join()
    cache = advisor.embedding_cache
    return {"busy": busy, "served": served, "picks": picks, "waits": waits, "sizes": sizes,
            "fallbacks": fallback_queries,
            "hits": cache.hits if cache is not None else 0,
            "misses": cache.misses if cache is not None else 0,
            "index": type(advisor.rcs.index).__name__}


def traced_layers(seed: int, seconds: float, work: Path, log,
                  tracer: Tracer) -> dict:
    """Replay the request stream without and with spans in ``tracer``.

    Returns the serving layers' metrics, the number of requests served and
    (untraced busy s, traced busy s, summed layer self time s).
    """
    inputs = prepare(seed, work)
    schedule = [(FIXED_RATE, seconds / 4),
                (BURST_RATE, BURST_REQUESTS / BURST_RATE)]
    # Warm the process (lazy imports, BLAS start-up, page cache) so the
    # untraced replay does not pay costs the traced one then skips.
    _expected_picks(inputs["advisor"], dict(
        (name, path) for path, name in inputs["files"][:16]))
    untraced = _replay(inputs["advisor"], inputs["files"], seed, schedule,
                       Tracer(enabled=False))
    first = len(tracer.spans)
    replay = _replay(inputs["advisor"], inputs["files"], seed, schedule,
                     tracer)
    n = replay["served"]
    metrics = {"persistence.load_s": tracer.totals("persistence.load", first)[0]}
    load_s, loads = tracer.totals("db.load", first)
    metrics["db.load_ms"] = load_s / loads * 1000.0
    metrics["features.featurize_ms"] = (
        tracer.totals("features.featurize", first)[0] / n * 1000.0)
    metrics["encoder.embed_ms"] = (
        tracer.totals("encoder.embed", first)[0] / n * 1000.0)
    lookups = replay["hits"] + replay["misses"]
    metrics["cache.hit_ratio"] = replay["hits"] / lookups if lookups else 0.0
    metrics["search.ms_per_query"] = (
        tracer.totals("search", first)[0] / n * 1000.0)
    metrics["search.index"] = float(INDEX_CODES.get(replay["index"], 3))
    metrics["search.exact_fallback_ratio"] = replay["fallbacks"] / n
    metrics["batching.batch_size_mean"] = (
        sum(replay["sizes"]) / len(replay["sizes"]))
    metrics["batching.queue_wait_ms"] = (
        sum(replay["waits"]) / len(replay["waits"]) * 1000.0)
    served = {name for name, _ in replay["picks"]}
    _, exact = _expected_picks(inputs["advisor"], {
        name: path for path, name in inputs["files"] if name in served})
    metrics["search.pick_agreement"] = sum(
        exact[name] == model for name, model in replay["picks"]) / n
    layer_self = sum(t for name, t in tracer.self_times(first).items()
                     if name not in ("serve.batch", "persistence.load"))
    log(f"serve (traced): {n} requests at {FIXED_RATE:g} rps, then a burst "
        f"of {BURST_REQUESTS}; index {replay['index']}, cache "
        f"{replay['hits']} hits / {replay['misses']} misses, busy "
        f"untraced {untraced['busy']:.3f} s, traced {replay['busy']:.3f} s")
    return {"metrics": metrics, "served": n,
            "walls": (untraced["busy"], replay["busy"], layer_self)}


def traced(seed: int, seconds: float, work: Path, log) -> dict:
    from layers import cli_import_s, empty_layer_metrics

    tracer = Tracer()
    part = traced_layers(seed, seconds, work, log, tracer)
    metrics = empty_layer_metrics()
    metrics.update(part["metrics"])
    metrics["cli.import_s"] = cli_import_s()
    untraced, traced_busy, layer_self = part["walls"]
    metrics["trace.overhead_ratio"] = traced_busy / untraced - 1.0
    metrics["trace.accounted_ratio"] = layer_self / untraced
    return {"tracer": tracer, "metrics": metrics, "attempted": part["served"],
            "failed": 0, "walls": part["walls"]}
