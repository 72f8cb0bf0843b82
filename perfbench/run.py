"""Pipeline benchmark of the AutoCE reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train|serve|optimize --seed N \
        --seconds S --trace 0|1 [--compare PREVIOUS.json]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing; ``--trace 1`` replays the workload in-process with spans
around every layer call and reports the per-layer metrics.  The last line
of standard output is the result as one JSON object; the full record
(with the machine's environment block) is also written to
``.perfbench_out/``.  ``--compare`` prints each metric's ratio to a
previous record or result line and flags end-to-end metrics that got
worse by more than their bound.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (ROOT, WORK_ROOT, BenchmarkError,  # noqa: E402
                     environment, load_spec, require_program)

WORKLOADS = ("train", "serve", "optimize")
OUT_DIR = ROOT / ".perfbench_out"


def log(message: str) -> None:
    print(message, flush=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    import importlib
    module = importlib.import_module(name)
    if not trace:
        return module.run(seed, seconds, work, log)
    result = module.traced(seed, seconds, work, log)
    tracer = result.pop("tracer")
    spans = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(spans)
    log(f"trace: {len(tracer.spans)} spans written to {spans}")
    _report_self_times(tracer, result.pop("walls"))
    return result


def _report_self_times(tracer, walls: tuple[float, float, float]) -> None:
    """Per-layer self time and the accounting of the untraced wall."""
    untraced, traced, layer_self = walls
    self_times = tracer.self_times()
    total = sum(self_times.values())
    log("span self time (traced run, share of all spans):")
    for name, seconds in sorted(self_times.items(), key=lambda item: -item[1]):
        log(f"  {name:<24} {seconds * 1000:10.1f} ms "
            f"{100 * seconds / total:6.1f}%")
    overhead = traced - untraced
    gap = layer_self - untraced
    verdict = "within" if abs(gap) <= abs(overhead) + 0.02 * untraced \
        else "OUTSIDE"
    log(f"accounting: layer self times {layer_self:.3f} s vs untraced "
        f"{untraced:.3f} s (gap {gap:+.3f} s), tracing overhead "
        f"{overhead:+.3f} s -> {verdict} the overhead (+2% of untraced)")


def result_line(spec: dict, trace: bool, outcome: dict,
                checks_ok: bool) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = outcome["metrics"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ names)} do not match "
            "BENCHMARK.json")
    return {
        "correct": bool(checks_ok and outcome["failed"] == 0),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }


def compare(spec: dict, current: dict, path: Path) -> None:
    """Print each metric's ratio to a previous run; flag bound breaches."""
    text = path.read_text().strip()
    try:
        previous = json.loads(text)  # a record written by this script
    except json.JSONDecodeError:
        previous = json.loads(text.splitlines()[-1])  # a captured stdout
    previous = previous.get("result", previous)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    log(f"compare with {path}:")
    for name, entry in current["metrics"].items():
        before = previous.get("metrics", {}).get(name, {}).get("value")
        if before is None:
            log(f"  {name:<28} (not in the previous run)")
            continue
        now = entry["value"]
        ratio = now / before if before else float("inf") if now else 1.0
        line = f"  {name:<28} {before:>12.4f} -> {now:>12.4f}  x{ratio:.3f}"
        meta = declared[name]
        bound = meta.get("bound")
        if bound is not None:
            worse = ratio - 1.0 if meta["better"] == "lower" else 1.0 - ratio
            if worse > bound:
                line += f"  REGRESSION (bound {bound:.0%})"
        log(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, default=None,
                        help="previous record or result line to compare with")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so every child it started is
    # stopped and its scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    try:
        spec = load_spec()
        require_program()
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    env = environment()
    log(f"env: {json.dumps(env, sort_keys=True)}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    started = time.perf_counter()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
        result = result_line(spec, bool(args.trace), outcome,
                             outcome.get("checks_ok", True))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    log(f"{args.workload}: {result['attempted']} operations attempted, "
        f"{result['attempted'] - result['failed']} succeeded, "
        f"{result['failed']} failed; correct={result['correct']}; "
        f"{time.perf_counter() - started:.1f} s")
    for name, entry in result["metrics"].items():
        log(f"  {name:<28} {entry['value']:14.4f} {entry['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "result": result}, indent=2) + "\n")
    if args.compare is not None:
        compare(spec, result, args.compare)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
