#!/usr/bin/env python3
"""Scan the empirical constant of the highly correlated regime.

Runs ``gamma2lab explore`` once per coefficient profile, each writing one
CSV report, and prints a combined summary read back from those reports.
Uniform profiles should come out at zero; structured profiles show how far
the first-order picture bends.  Exits with the largest exit code of the
runs, so a failed run (an error report) makes the scan fail.

    python scripts/run_conjecture_scan.py --particles 2,4,6 --outdir results/
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gamma2lab.cli import main as cli_main  # noqa: E402

DEFAULT_PROFILES = [
    "uniform:8",
    "uniform:12",
    "geometric:0.9:12",
    "geometric:0.8:10",
    "power:0.5:12",
    "power:0.25:12",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", nargs="*", default=DEFAULT_PROFILES,
                        help="coefficient profiles in the CLI grammar")
    parser.add_argument("--particles", type=str, default="2,4,6")
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()

    status = 0
    print(f"{'profile':>18} {'N':>3} {'sup':>12} {'c_emp':>12}")
    for label in args.profiles:
        out = args.outdir / (label.replace(":", "_") + ".csv")
        code = cli_main(["explore", "--lambda", label, "--particles", args.particles,
                         "--out", str(out)])
        status = max(status, code)
        if code == 2:  # a usage error, printed by cli_main, writes no report
            continue
        with open(out, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["kind"] == "error":
                    print(f"{label:>18} exit {code}: {row['note']}")
                    continue
                sup, c_emp = row["observed"], row.get("detail:c_emp", "")
                sup = f"{float(sup):12.8f}" if sup else "-"
                c_emp = f"{float(c_emp):12.3e}" if c_emp else "-"
                print(f"{label:>18} {row['param:N']:>3} {sup:>12} {c_emp:>12}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
