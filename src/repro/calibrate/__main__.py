"""CLI: calibrate the engine profiles' cost constants.

Usage::

    PYTHONPATH=src python -m repro.calibrate \\
        --rows 40000 --repeat 3 \\
        --out benchmarks/results/BENCH_calibration.json \\
        --emit benchmarks/results/calibrated_profiles.json \\
        --check

``--check`` exits non-zero unless every profile's median Q-error
strictly improved — the CI gate.  ``--emit`` writes a calibrated
profile set loadable with
``repro.engine.profiles.load_calibrated(path)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from repro.calibrate.fit import (
    evaluate_constants,
    fit_constants,
    fit_intercepts,
)
from repro.calibrate.harness import run_workload
from repro.engine.profiles import (
    available_profiles,
    dump_calibrated,
    profile_base,
)


def calibrate_profile(name: str, rows: int, repeat: int) -> Dict[str, object]:
    """Measure, fit, and score one profile; returns the report entry."""
    profile = profile_base(name)
    observations = run_workload(name, rows=rows, repeat=repeat)
    before = evaluate_constants(
        observations, profile.constants(), profile.calibration
    )
    fitted = fit_constants(observations, profile)
    after = evaluate_constants(
        observations, fitted, profile.calibration
    )
    # Whatever per-query time the per-row constants leave unexplained
    # becomes the per-statement startup intercept.
    intercepts = fit_intercepts(
        observations, fitted, profile, repeat=repeat
    )
    return {
        "constants_before": profile.constants(),
        "constants_after": {**fitted, **intercepts},
        "startup_fit": intercepts,
        "before": before,
        "after": after,
        "improved": after["median_q_error"] < before["median_q_error"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.calibrate",
        description="Calibrate engine-profile cost constants against "
        "measured per-operator executor timings.",
    )
    parser.add_argument(
        "--rows", type=int, default=40_000,
        help="fact-table rows in the micro-workload (default 40000)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="workload repetitions per profile (default 3)",
    )
    parser.add_argument(
        "--profiles", default=",".join(available_profiles()),
        help="comma-separated profile names (default: all)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the calibration report JSON here",
    )
    parser.add_argument(
        "--emit", default=None,
        help="write the calibrated profile set JSON here",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every profile's median Q-error strictly "
        "improved",
    )
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.profiles.split(",") if n.strip()]
    report: Dict[str, object] = {
        "workload": {"rows": args.rows, "repeat": args.repeat},
        "q_error": "max(estimated/actual, actual/estimated)",
        "profiles": {},
    }
    all_improved = True
    for name in names:
        entry = calibrate_profile(name, args.rows, args.repeat)
        report["profiles"][name] = entry
        all_improved = all_improved and bool(entry["improved"])
        print(
            f"{name:>10}: median Q-error "
            f"{entry['before']['median_q_error']:.2f} -> "
            f"{entry['after']['median_q_error']:.2f} "
            f"({'improved' if entry['improved'] else 'NOT improved'}, "
            f"{entry['before']['observations']} observations)"
        )
    report["all_improved"] = all_improved

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    if args.emit:
        calibrated = [
            profile_base(name).with_constants(
                **report["profiles"][name]["constants_after"]
            )
            for name in names
        ]
        with open(args.emit, "w", encoding="utf-8") as handle:
            json.dump(
                dump_calibrated(calibrated), handle, indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"calibrated profiles written to {args.emit}")

    if args.check and not all_improved:
        print("FAIL: median Q-error did not strictly improve")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
