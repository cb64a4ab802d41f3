"""The perf benchmark's one command.

    python benchmarks/perf/run.py [--workload NAME|all] [--seed 19921]
                                  [--seconds 30] [--out FILE]
                                  [--smoke] [--append]
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/perf/run.py --compare A.json B.json

Without ``--trace`` the command runs each workload in two fresh
subprocesses — first the wrappers-off run that yields the end-to-end
metrics, then the traced run that yields the per-layer ones — prints
every metric by name with its unit and writes one JSON result.  With
``--trace`` it *is* one of those subprocesses (the form BENCHMARK.json's
driver calls): one workload, in this process, whose last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  README.md has the
workloads, the metrics and how to read the trace files.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.obs.clock import wall_now  # noqa: E402
from repro.sql.render import render  # noqa: E402

import spans  # noqa: E402
from kernels import kernel_rates  # noqa: E402
from metrics import BY_NAME, END_TO_END, PER_LAYER, UNTRACED, is_count  # noqa: E402
from workloads import (  # noqa: E402
    QUERIES,
    WORKLOADS,
    YARD_REF,
    Bench,
    Round,
    Timed,
    Workload,
    yardstick,
)

RESULTS = HERE / "results"
DEFAULT_SEED = 19921
#: set-ups per wrappers-off run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: traced rounds written to ``trace-<workload>.json`` (the metrics use
#: every traced round; the file keeps the first few to stay small)
TRACE_FILE_ROUNDS = 3


def _expected_rows(workload: Workload, seed: int) -> Optional[Dict[str, int]]:
    """Committed warm-up row counts — they hold for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    table = json.loads((HERE / "expected_rows.json").read_text())
    return table[workload.name]


def _median(values: List[float], unit: str) -> dict:
    """A median with what ``--compare`` needs to judge its noise."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else None
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "iqr": quartiles[2] - quartiles[0] if quartiles else 0.0,
    }


def _value(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


# -- one workload, in this process ------------------------------------------


def _set_up(workload: Workload, seed: int):
    """Build the workload; returns it with its set-up time."""
    expected = _expected_rows(workload, seed)
    before = yardstick()
    start = wall_now()
    bench = Bench(workload, seed, expected)
    wall = wall_now() - start
    return bench, Timed(wall, (before + yardstick()) / 2.0)


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    """Set-up (several times), then whole rounds for ``seconds`` with
    no wrapper installed: the end-to-end metrics.  Times are at the
    reference machine speed (``workloads.yardstick``)."""
    setups = []
    bench = None
    for _ in range(SETUP_REPEATS):
        bench = None  # drop the previous federation before building anew
        gc.collect()
        bench, setup = _set_up(workload, seed)
        setups.append(setup.norm)
    gc.collect()

    rounds: List[Round] = []
    deadline = wall_now() + seconds
    while True:
        rounds.append(bench.run_round())
        if wall_now() >= deadline:
            break
    wrong = bench.verify(rounds)

    query_walls = [q.norm for r in rounds for q in r.queries]
    completed = sum(q.rows is not None for r in rounds for q in r.queries)
    busy = sum(r.norm for r in rounds)
    first = rounds[0]
    metrics = {
        "round_p50_ms": _median([r.norm * 1000.0 for r in rounds], "ms"),
        "queries_per_s": _value((completed - wrong) / busy, "1/s"),
        "query_p90_ms": _value(
            statistics.quantiles(query_walls, n=10)[-1] * 1000.0,
            "ms",
            n=len(query_walls),
        ),
        # one fixed round, so the value repeats exactly for one seed
        # even on prepared_fresh, where the data grows every round
        "sim_exec_s": _value(first.total("sim_seconds"), "sim_s"),
        "bytes_moved": _value(first.total("bytes_moved"), "bytes"),
        "peak_rss_mb": _value(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "setup_s": _median(setups, "s"),
    }
    return _record(workload, seed, seconds, 0, bench, metrics)


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Alternate traced and wrappers-off rounds for ``seconds``: the
    per-layer metrics, and what the wrappers themselves cost."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        bench, setup = _set_up(workload, seed)
    finally:
        tracer.uninstall()
    setup_spans, _ = tracer.take()
    first_refresh = min(
        (s for s in setup_spans if s[spans.NAME] == "core.catalog.refresh"),
        key=lambda s: s[spans.START],
    )
    gc.collect()

    rounds: List[Round] = []  # in execution order: traced, plain, traced, …
    summaries: List[Dict[str, float]] = []
    exported = []
    distinct_plan_ratio = 0.0
    deadline = wall_now() + seconds
    while True:
        tracer.install()
        origin = wall_now()
        try:
            rounds.append(bench.run_round())
        finally:
            tracer.uninstall()
        round_spans, statements = tracer.take()
        summaries.append(spans.summarise(round_spans))
        if len(summaries) == 1:
            distinct_plan_ratio = len(
                {(db, render(statement)) for db, statement in statements}
            ) / len(statements)
        if len(exported) < TRACE_FILE_ROUNDS:
            exported.append(spans.export(round_spans, origin))
        rounds.append(bench.run_round())
        if wall_now() >= deadline:
            break
    bench.verify(rounds)
    traced, plain = rounds[0::2], rounds[1::2]

    metrics = {}
    for name in summaries[0]:
        unit = BY_NAME[name].unit
        if unit == "count":
            # the first traced round sits at a fixed place in the
            # seeded sequence, so its counts repeat exactly
            metrics[name] = _value(summaries[0][name], unit)
        else:
            metrics[name] = _median(
                [s[name] * YARD_REF / r.speed for s, r in zip(summaries, traced)],
                unit,
            )
    first = traced[0]
    queries = len(first.queries)
    metrics.update(
        {
            "core.annotate.consultations": _value(first.total("consultations"), "count"),
            "core.finalize.tasks": _value(first.total("tasks"), "count"),
            "core.partition.cross_shard_bytes": _value(
                first.total("cross_shard_bytes"), "bytes"
            ),
            "engine.planner.distinct_plan_ratio": _value(distinct_plan_ratio, "ratio"),
            "obs.spans_per_query": _value(first.total("obs_spans") / queries, "count"),
            "obs.events_per_query": _value(first.total("obs_events") / queries, "count"),
            "core.catalog.refresh.first_ms": _value(
                Timed(
                    first_refresh[spans.END] - first_refresh[spans.START],
                    setup.speed,
                ).norm
                * 1000.0,
                "ms",
            ),
        }
    )
    for q in QUERIES:
        metrics[f"submit.{q.lower()}_p50_ms"] = _median(
            [s.norm * 1000.0 for r in plain for s in r.queries if s.name == q], "ms"
        )
    if workload.name == "exec_heavy":
        rates = kernel_rates(seed)
    else:
        rates = dict.fromkeys(
            (m.name for m in PER_LAYER if m.name.startswith("engine.kernel.")), 0.0
        )
    metrics.update({name: _value(rate, "rows/s") for name, rate in rates.items()})
    writes = [r.write.norm * 1000.0 for r in plain if r.write is not None]
    metrics["write_p50_ms"] = (
        _median(writes, "ms") if writes else _value(0.0, "ms")
    )
    metrics["trace_overhead_pct"] = _value(
        (
            statistics.median(r.norm for r in traced)
            / statistics.median(r.norm for r in plain)
            - 1.0
        )
        * 100.0,
        "%",
        n=len(traced),
    )
    # what the normalisation took out: the wall as measured, and how
    # fast the machine ran the yardstick meanwhile
    metrics["raw.round_p50_ms"] = _median([r.wall * 1000.0 for r in plain], "ms")
    metrics["yardstick.p50_ms"] = _median([r.speed * 1000.0 for r in rounds], "ms")

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{workload.name}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "fields": ["id", "name", "start_ms", "end_ms", "parent", "count"],
                "rounds": exported,
            }
        )
    )
    return _record(workload, seed, seconds, 1, bench, metrics)


def _record(workload, seed, seconds, trace, bench, metrics) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def _print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for name, metric in metrics.items():
        samples = f"  (n={metric['n']})" if "n" in metric else ""
        print(
            f"{workload:<15} {name:<44} {metric['value']:>16.4f} "
            f"{metric['unit']}{samples}"
        )


def run_one(args) -> int:
    """The driver protocol: one workload here, result on the last line."""
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    record = run(workload, args.seed, args.seconds)
    _print_metrics(workload.name, record["metrics"])
    print(
        f"{workload.name:<15} attempted {record['attempted']}, "
        f"failed {record['failed']}"
    )
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1))
    declared = PER_LAYER if args.trace else [BY_NAME[n] for n in UNTRACED]
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    m.name: {
                        "value": record["metrics"][m.name]["value"],
                        "unit": m.unit,
                    }
                    for m in declared
                },
            }
        ),
        flush=True,
    )
    return 0 if record["correct"] else 1


# -- every workload, each in its own subprocesses ---------------------------


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    result = {
        "git_sha": _git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "claim": None,
        "workloads": {},
    }
    status = 0
    for name in names:
        merged = {"attempted": 0, "failed": 0, "metrics": {}}
        for trace in (0, 1):
            part = RESULTS / f"part-{name}-{trace}.json"
            part.unlink(missing_ok=True)
            child = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(part),
                ]
            )
            status = status or child.returncode
            if not part.exists():  # the child died before its verdict
                continue
            record = json.loads(part.read_text())
            part.unlink()
            merged["attempted"] += record["attempted"]
            merged["failed"] += record["failed"]
            merged["metrics"].update(record["metrics"])
        if merged["attempted"]:
            merged["metrics"]["error_rate"] = _value(
                merged["failed"] / merged["attempted"], "ratio"
            )
            merged["correct"] = merged["failed"] == 0
            _print_metrics(
                name, {"error_rate": merged["metrics"]["error_rate"]}
            )
        result["workloads"][name] = merged
    out = pathlib.Path(args.out) if args.out else RESULTS / "latest.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    if args.append:
        entry = {k: v for k, v in result.items() if k != "workloads"}
        entry["metrics"] = {
            name: {m: v["value"] for m, v in merged["metrics"].items()}
            for name, merged in result["workloads"].items()
        }
        with open(RESULTS / "trajectory.jsonl", "a") as trajectory:
            trajectory.write(json.dumps(entry) + "\n")
        print(f"appended to {RESULTS / 'trajectory.jsonl'}")
    return status


# -- comparing two results ---------------------------------------------------


def _noise(metric: dict) -> float:
    """Relative noise of a median, from its own samples: IQR / sqrt(n)."""
    if not metric.get("iqr") or not metric["value"]:
        return 0.0
    return metric["iqr"] / math.sqrt(metric["n"]) / abs(metric["value"])


def compare(path_a: str, path_b: str) -> int:
    """One row per (end-to-end metric, workload): both values, B/A with
    A as its base, and ok / regressed / unresolved by the metric's
    bound.  Non-zero exit on a regression or a rise in ``error_rate``."""
    a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    status = 0
    print(f"{'metric':<20} {'workload':<15} {'A':>14} {'B':>14}  B/A (base A)          verdict")
    for name in sorted(set(a) & set(b)):
        for metric in END_TO_END:
            ma = a[name]["metrics"].get(metric.name)
            mb = b[name]["metrics"].get(metric.name)
            if ma is None or mb is None:
                continue
            if metric.name == "write_p50_ms" and not ma["value"]:
                continue  # only prepared_fresh writes
            va, vb = ma["value"], mb["value"]
            if va:
                ratio = f"{vb / va:.4f} (base {va:.4f} {metric.unit})"
                worse = (vb - va) / abs(va)
                if metric.better == "higher":
                    worse = -worse
            else:
                ratio = f"n/a (base 0 {metric.unit})"
                worse = math.inf if vb > va else 0.0
            if metric.bound is None:
                verdict = "reported"
            elif max(_noise(ma), _noise(mb)) > metric.bound:
                verdict = "unresolved"
            elif worse > metric.bound:
                verdict = "regressed"
                status = 1
            else:
                verdict = "ok"
            print(f"{metric.name:<20} {name:<15} {va:>14.4f} {vb:>14.4f}  {ratio:<36} {verdict}")
        counts = [
            m
            for m in a[name]["metrics"]
            if m in b[name]["metrics"] and m in BY_NAME and is_count(m)
        ]
        differ = [
            m for m in counts
            if a[name]["metrics"][m]["value"] != b[name]["metrics"][m]["value"]
        ]
        print(f"{'count metrics':<20} {name:<15} {len(counts)} compared, {len(differ)} differ")
        for m in differ:
            print(
                f"  {m}: {a[name]['metrics'][m]['value']} -> "
                f"{b[name]['metrics'][m]['value']}"
            )
    return status


# -- command line ------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true", help="--seconds 3")
    parser.add_argument(
        "--append", action="store_true", help="add the result to results/trajectory.jsonl"
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        args.seconds = 3.0
    if args.trace is not None:
        if args.workload == "all":
            parser.error("--trace runs one workload; name it with --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
