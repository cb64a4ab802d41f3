"""CLI: fuzz the SQL dialects and execution engines.

Usage::

    PYTHONPATH=src python -m repro.fuzz \\
        --seed 7 --cases 1500 \\
        --corpus tests/corpus --artifacts fuzz-failures

Replays the regression corpus first, then runs ``--cases`` seeded
cases (each statement case round-trips through every dialect, so the
count is per-dialect).  Exits 1 if any case or corpus entry fails;
shrunk failing specs are written to ``--artifacts``.
"""

from __future__ import annotations

import argparse
import sys

from repro.fuzz.oracle import DIALECTS
from repro.fuzz.runner import run_fuzz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the vendor SQL dialects "
        "and execution engines.",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--cases", type=int, default=500,
        help="seeded cases to generate (each runs per dialect)",
    )
    parser.add_argument(
        "--corpus", default=None,
        help="regression corpus directory to replay (tests/corpus)",
    )
    parser.add_argument(
        "--artifacts", default=None,
        help="directory for shrunk failing specs",
    )
    args = parser.parse_args(argv)

    def progress(done: int, total: int) -> None:
        print(f"  {done}/{total} cases", flush=True)

    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        corpus_dir=args.corpus,
        artifacts_dir=args.artifacts,
        progress=progress,
    )
    mix = ", ".join(
        f"{kind}={count}" for kind, count in sorted(report.kinds.items())
    )
    print(
        f"fuzz: {report.cases} cases x {len(DIALECTS)} dialects "
        f"(seed {report.seed}; {mix})"
    )
    for filename, failures in report.regressions:
        print(f"CORPUS REGRESSION {filename}:")
        for failure in failures:
            print(f"  - {failure}")
    for index, spec, failures in report.failures:
        print(f"FAIL case #{index} (shrunk spec {spec!r}):")
        for failure in failures:
            print(f"  - {failure}")
    if not report.ok:
        print(
            f"FAIL: {len(report.failures)} failing cases, "
            f"{len(report.regressions)} corpus regressions"
        )
        return 1
    print("OK: zero surviving failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
