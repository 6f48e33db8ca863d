"""The benchmark's workloads: CLI operations generated from a seed.

Each workload function takes a ``random.Random`` seeded with the workload
seed and a working directory (for ``file:`` profiles) and returns a list of
operations ``{"argv": [...], "expect": {...}}``.  ``argv`` follows the
README's command grammar without ``--out``; ``expect`` tells ``bench_gate``
what the report must contain.  The program only ever sees the generated arguments and files.
Every workload runs single-threaded (``--threads 1`` where the subcommand has
the flag), the mode whose reports are byte-identical across reruns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SEED_RANGE = 2 ** 31


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Path], list[dict]]


def _sweep_op(check: str, d: int, N: int, trials: int, seed: int) -> dict:
    argv = ["verify", check, "--dim", str(d), "--particles", str(N),
            "--trials", str(trials), "--seed", str(seed), "--threads", "1"]
    kind = "thm1" if check == "thm1" else "prop_occupation"
    return {"argv": argv, "expect": {"type": "sweep", "kind": kind, "N": N,
                                     "trials": trials, "seed": seed}}


def _particles(values) -> str:
    return ",".join(str(n) for n in values)


def sweep_small(rng: random.Random, workdir: Path) -> list[dict]:
    return [_sweep_op("thm1", 8, 4, 100, rng.randrange(SEED_RANGE)),
            _sweep_op("occupation", 8, 4, 30, rng.randrange(SEED_RANGE))]


def sector_large(rng: random.Random, workdir: Path) -> list[dict]:
    return [_sweep_op("thm1", 20, 10, 1, rng.randrange(SEED_RANGE))]


def _profile(path: Path, values) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
    return f"file:{path.as_posix()}"


def pair_gap(rng: random.Random, workdir: Path) -> list[dict]:
    # The gap operator is checked for any positive profile.  For explore,
    # lam_k in [0.9, 1.1] before normalization keeps N * lam_max^2 below 1
    # for every N <= 8 at K = 12, so each listed N is admissible.
    prop_file = _profile(workdir / "prop_profile.txt",
                         [rng.uniform(0.5, 1.5) for _ in range(7)])
    explore_file = _profile(workdir / "explore_profile.txt",
                            [rng.uniform(0.9, 1.1) for _ in range(12)])
    prop_n, explore_n = (2, 4), (2, 4, 6)
    prop = [{"argv": ["verify", "prop", "--lambda", spec, "--particles",
                      _particles(prop_n), "--threads", "1"],
             "expect": {"type": "prop", "particles": prop_n}}
            for spec in ("uniform:7", prop_file)]
    explore = [{"argv": ["explore", "--lambda", spec, "--particles",
                         _particles(explore_n)],
                "expect": {"type": "explore", "particles": explore_n,
                           "uniform": spec.startswith("uniform")}}
               for spec in ("uniform:12", explore_file)]
    return prop + explore


def counterexample_growth(rng: random.Random, workdir: Path) -> list[dict]:
    # Growth in N holds for power profiles with P <= 1.
    power = rng.uniform(0.25, 1.0)
    particles = (4, 6, 8, 10, 12)
    return [{"argv": ["counterexample", "--lambda", f"power:{power!r}:12",
                      "--particles", _particles(particles), "--k-equals-n"],
             "expect": {"type": "counterexample", "particles": particles}}]


WORKLOADS = {w.name: w for w in (
    Workload("sweep-small",
             "Bound by per-call overhead: fock.apply_annihilate_vector, "
             "canonical.youla_decompose and linalg.svd over many d=8, N=4 "
             "states; mirrors scripts/run_theorem_sweep.py.",
             sweep_small),
    Workload("sector-large",
             "The same fock/rdm functions in bulk at d=20, N=10: without it "
             "Gamma2 assembly (rdm.compute_gamma2) and its memory go unmeasured.",
             sector_large),
    Workload("pair-gap",
             "Dense linalg.eigvalsh plus Lanczos (linalg.eigsh over "
             "pairing.apply_B/apply_B_star); targets seniority blocks and never "
             "touches rdm or canonical.",
             pair_gap),
    Workload("counterexample-growth",
             "Enumerating d=24 sectors (fock.occupation_masks) and "
             "apply_annihilate_vector on 2.7M-state vectors: the large-array "
             "counterpart of sweep-small.",
             counterexample_growth),
)}
