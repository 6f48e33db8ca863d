#!/usr/bin/env python3
"""Seeded sweep of the eigenvalue ceiling and the occupation floors.

Runs the two verifier families over random states and writes one JSON report
per family.  Typical use:

    python scripts/run_theorem_sweep.py --dim 8 --particles 4 \
        --trials 200 --seed 7 --outdir results/
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gamma2lab.cli import main as cli_main  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--particles", type=int, default=4)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()

    common = ["--dim", str(args.dim), "--particles", str(args.particles),
              "--trials", str(args.trials), "--seed", str(args.seed),
              "--tol", repr(args.tol)]
    status = 0
    for check in ("thm1", "occupation"):
        out = args.outdir / f"{check}_d{args.dim}_n{args.particles}.json"
        code = cli_main(["verify", check, *common, "--out", str(out)])
        print(f"{check}: exit {code} -> {out}")
        status = max(status, code)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
