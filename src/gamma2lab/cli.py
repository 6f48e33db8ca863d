"""Experiment runner: seeded sweeps, bound verifiers, JSON/CSV reports.

Subcommands
-----------
canonical       decompose a tensor file into its canonical pair form
verify thm1     eigenvalue-ceiling sweep over seeded random states
verify thm2     trial-state floor for a coefficient profile
verify prop     positivity/optimality of the pair-operator gap
verify occupation   occupation floors for eigenpairs of random states
verify norms    two-sided norm inequality plus the combinatorial oracle
explore         empirical constant of the highly correlated regime (no pass/fail)
counterexample  overlap floor demonstrating growth in N

Coefficient profiles use the grammar ``uniform:K``, ``geometric:R:K``
(lam_k proportional to R**k), ``power:P:K`` (lam_k proportional to k**-P),
or ``file:PATH`` (one finite non-negative real per line); all are normalized
to sum lam**2 = 1 and sorted descending.

Checks hold plain JSON values when built (None where a value does not
apply), so the writers convert nothing; the JSON writer raises on a
non-finite float rather than write ``NaN`` or ``Infinity``.

Reports are deterministic: identical single-threaded runs write
byte-identical files.  Wall-clock timing therefore goes to stderr and is
only embedded in the report when ``--timing`` is given.  The random-state
generator is counter-based (Philox, 4x64) and keyed by the seed alone, so
states are reproducible across platforms.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, bounds, canonical, pairing, rdm
from .fock import SectorVector, enumerate_sector

SCHEMA_VERSION = 1
RNG_NAME = "philox4x64"
OUTDIR_ENV = "GAMMA2LAB_OUTDIR"


@dataclass
class LambdaSpec:
    """Parsed coefficient profile: kind, raw parameters, resolved values."""

    kind: str
    params: dict
    values: np.ndarray

    @property
    def label(self) -> str:
        inner = ":".join(str(v) for v in self.params.values())
        return f"{self.kind}:{inner}" if inner else self.kind

    @property
    def config(self) -> dict:
        """The profile as a report's ``config`` records it."""
        return {"spec": self.label, "values": self.values.tolist()}


def _resolve(raw: np.ndarray) -> np.ndarray:
    if np.any(raw < 0):
        raise ValueError("coefficients must be non-negative")
    nrm = float(np.linalg.norm(raw))
    if not np.isfinite(nrm):  # NaN or inf entries, or a norm that overflows
        raise ValueError("coefficients and their norm must be finite")
    if nrm == 0.0:
        raise ValueError("coefficient profile is identically zero")
    vals = np.sort(raw / nrm)[::-1].copy()
    nrm2 = float(np.sum(vals ** 2))
    if abs(nrm2 - 1.0) > 1e-14:
        vals = vals / np.sqrt(nrm2)
    return vals


def parse_lambda_spec(text: str) -> LambdaSpec:
    """Parse ``uniform:K``, ``geometric:R:K``, ``power:P:K`` or ``file:PATH``."""
    head, _, rest = text.partition(":")
    if head == "uniform":
        k = int(rest)
        if k < 1:
            raise ValueError("uniform profile needs K >= 1")
        return LambdaSpec("uniform", {"K": k}, _resolve(np.ones(k)))
    if head == "geometric":
        ratio_s, _, k_s = rest.partition(":")
        ratio, k = float(ratio_s), int(k_s)
        if ratio <= 0 or k < 1:
            raise ValueError("geometric profile needs R > 0 and K >= 1")
        raw = ratio ** np.arange(1, k + 1)
        return LambdaSpec("geometric", {"R": ratio, "K": k}, _resolve(raw))
    if head == "power":
        p_s, _, k_s = rest.partition(":")
        p, k = float(p_s), int(k_s)
        if k < 1:
            raise ValueError("power profile needs K >= 1")
        raw = np.arange(1, k + 1, dtype=np.float64) ** (-p)
        return LambdaSpec("power", {"P": p, "K": k}, _resolve(raw))
    if head == "file":
        path = Path(rest)
        rows = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
        raw = np.array([float(r) for r in rows if r and not r.startswith("#")])
        if raw.size < 1:
            raise ValueError(f"no coefficients found in {path}")
        return LambdaSpec("explicit-file", {"path": str(path)}, _resolve(raw))
    raise ValueError(f"unknown coefficient profile {text!r}")


def random_state(d: int, N: int, seed: int) -> SectorVector:
    """Normalized random sector vector, deterministic per (d, N, seed).

    Amplitudes are i.i.d. complex standard normal from a counter-based
    Philox stream keyed by the seed.
    """
    sec = enumerate_sector(d, N)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = rng.standard_normal(sec.dim) + 1j * rng.standard_normal(sec.dim)
    return SectorVector(sec, z / np.linalg.norm(z))


# --- report plumbing --------------------------------------------------------


def build_report(config: dict, checks: list, timing: float | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "artifact": "gamma2lab",
            "version": __version__,
            "rng": RNG_NAME,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "environment": platform.platform(),
        },
        "config": config,
        "checks": [c.to_dict() for c in checks],
        "timing": None if timing is None else {"elapsed_s": timing},
    }


def report_to_json(report: dict) -> str:
    """One line of JSON with sorted keys.  Without ``indent`` the encoder
    runs in C; any indent falls back to the pure-Python one.  A NaN or
    infinite float raises ValueError: neither is JSON."""
    return json.dumps(report, sort_keys=True, allow_nan=False) + "\n"


def report_to_csv(report: dict) -> str:
    """Flatten the checks list into one row per check."""
    checks = report["checks"]
    param_keys = sorted({k for c in checks for k in c.get("params", {})})
    detail_keys = sorted({k for c in checks for k in c.get("details", {})})
    header = (["kind"] + [f"param:{k}" for k in param_keys]
              + ["observed", "bound", "margin", "pass"]
              + [f"detail:{k}" for k in detail_keys] + ["note"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for c in checks:
        row = [c["kind"]]
        row += [_cell(c.get("params", {}).get(k)) for k in param_keys]
        row += [_cell(c.get(k)) for k in ("observed", "bound", "margin", "pass")]
        row += [_cell(c.get("details", {}).get(k)) for k in detail_keys]
        row.append(c.get("note", ""))
        writer.writerow(row)
    return buf.getvalue()


def _cell(v):
    """csv writes None as "" and a float by repr; a list or dict goes as JSON."""
    return json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v


def write_report(report: dict, out_path: Path) -> None:
    text = (report_to_csv(report) if out_path.suffix.lower() == ".csv"
            else report_to_json(report))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text, encoding="utf-8")


def _default_out(subcommand: str, explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    base = Path(os.environ.get(OUTDIR_ENV, "."))
    return base / f"{subcommand}_report.json"


# --- subcommand handlers ----------------------------------------------------


def _particles_list(text: str) -> list[int]:
    n_list = [int(p) for p in text.split(",") if p]
    if not n_list:
        raise ValueError(f"no particle number in {text!r}")
    return n_list


def _cmd_canonical(args) -> tuple[dict, list]:
    tensor = canonical.read_tensor_text(args.tensor)
    note = ""
    if args.normalize:
        nrm = tensor.norm()
        tensor = tensor.normalized()
        note = f"input rescaled from norm {nrm!r}"
    form = canonical.youla_decompose(tensor)
    roundtrip = float(np.linalg.norm(
        canonical.reconstruct(form).mat - tensor.mat))
    measures = canonical.correlation_measures(form)
    details = {
        "lambdas": form.lambdas.tolist(),
        "sum_lambda4": measures.sum_lambda4,
        "lambda_max": measures.lambda_max,
        "participation": measures.participation,
    }
    if args.vectors:
        details["vectors_real"] = form.vectors.real.tolist()
        details["vectors_imag"] = form.vectors.imag.tolist()
    check = bounds.TheoremReport(
        kind="canonical", params={"tensor": str(args.tensor), "d": tensor.d},
        observed=roundtrip, bound=args.tol, margin=args.tol - roundtrip,
        passed=roundtrip <= args.tol, details=details, note=note)
    config = {"tensor": str(args.tensor), "normalize": args.normalize,
              "vectors": args.vectors}
    return config, [check]


def _spectrum_row(psi, spectral, tag, args) -> bounds.TheoremReport:
    """Informational per-trial dump: eigenvalues and health residuals always,
    more on request."""
    g = spectral.operator
    details = {"eigenvalues": spectral.eigenvalues.tolist(),
               "hermiticity_defect": g.hermiticity_defect,
               "partial_trace_residual": rdm.partial_trace_residual(g, psi)}
    if args.eigenvectors:
        details["eigenvectors"] = [{"re": x.real.tolist(), "im": x.imag.tolist()}
                                   for x in spectral.wedge_vectors.T]
    if args.dump_operator:
        details["operator"] = {"re": g.mat.real.tolist(),
                               "im": g.mat.imag.tolist()}
    params = {"d": g.d, "N": g.n_particles}
    params.update(tag)
    return bounds.TheoremReport(kind="spectrum", params=params, details=details)


def _cmd_verify(args) -> tuple[dict, list]:
    config: dict = {"check": args.check, "tol": args.tol}
    if args.check in ("thm1", "occupation"):
        config.update({"dim": args.dim, "particles": args.particles,
                       "trials": args.trials, "seed": args.seed,
                       "threads": args.threads})
        verify = (bounds.verify_theorem1 if args.check == "thm1"
                  else bounds.eigenvector_occupation_check)
        if args.trials >= 1:  # refuse by arithmetic before drawing a state
            rdm.admit_gamma2(args.dim, args.particles)
        checks = []
        for t in range(args.trials):
            psi = random_state(args.dim, args.particles, args.seed + t)
            tag = {"seed": args.seed + t, "trial": t}
            spectral = rdm.spectral_decompose(rdm.compute_gamma2(psi))
            checks.append(_spectrum_row(psi, spectral, tag, args))
            checks += verify(spectral, tol=args.tol, tag=tag)
        return config, checks

    spec = parse_lambda_spec(args.lambda_spec)
    config["lambda"] = spec.config
    if args.check == "thm2":
        config["particles"] = args.particles
        return config, [bounds.verify_theorem2(spec.values, n, tol=args.tol)
                        for n in _particles_list(args.particles)]
    if args.check == "prop":
        config["particles"] = args.particles
        op = pairing.PairOperator.from_lambdas(spec.values)
        n_list = _particles_list(args.particles)
        for n in n_list:  # refuse the whole request before the first solve
            bounds.admit_proposition(op, n)
        return config, [bounds.proposition_report(op, n, tol=args.tol)
                        for n in n_list]
    if args.check == "norms":
        op = pairing.PairOperator.from_lambdas(spec.values)
        m_max = args.m_max if args.m_max else op.n_pairs
        config["m_max"] = m_max
        return config, bounds.norm_recursion_check(op, m_max, tol=args.tol)
    raise ValueError(f"unknown verify target {args.check!r}")


def _cmd_explore(args) -> tuple[dict, list]:
    spec = parse_lambda_spec(args.lambda_spec)
    n_list = _particles_list(args.particles)
    config = {"lambda": spec.config, "particles": args.particles,
              "tol": args.tol}
    return config, bounds.explore_conjecture(spec.values, n_list)


def _cmd_counterexample(args) -> tuple[dict, list]:
    spec = parse_lambda_spec(args.lambda_spec)
    n_list = _particles_list(args.particles)
    config = {"lambda": spec.config, "particles": args.particles,
              "tol": args.tol, "k_equals_n": args.k_equals_n}
    profiles = []
    for n in n_list:
        if args.k_equals_n:
            if spec.kind == "explicit-file":
                raise ValueError("--k-equals-n needs a parametric profile")
            params = dict(spec.params)
            params["K"] = n
            inner = ":".join(str(v) for v in params.values())
            profiles.append((n, parse_lambda_spec(f"{spec.kind}:{inner}").values))
        else:
            profiles.append((n, spec.values))
    return config, bounds.counterexample_sweep(profiles, tol=args.tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma2lab",
        description="Exact verification of two-body reduced-operator bounds "
                    "on a finite fermionic Fock space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=str, default=None,
                       help=f"report path (.json or .csv); default under ${OUTDIR_ENV}")
        p.add_argument("--tol", type=float, default=bounds.BOUND_TOL)
        p.add_argument("--timing", action="store_true",
                       help="embed wall-clock timing in the report "
                            "(breaks byte-identical reruns)")

    can = sub.add_parser("canonical", help="decompose a tensor file")
    can.add_argument("--tensor", type=str, required=True)
    can.add_argument("--normalize", action="store_true",
                     help="rescale the input to unit norm before decomposing")
    can.add_argument("--vectors", action="store_true",
                     help="include the canonical vectors in the report")
    common(can)

    ver = sub.add_parser("verify", help="run one family of bound checks")
    ver.add_argument("check", choices=["thm1", "thm2", "prop", "occupation", "norms"])
    ver.add_argument("--dim", type=int, default=8)
    ver.add_argument("--particles", type=str, default="4",
                     help="particle number, or comma list where applicable")
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--threads", type=int, default=1,
                     help="recorded in the report; trials always run in order")
    ver.add_argument("--lambda", dest="lambda_spec", type=str, default=None,
                     help="coefficient profile, e.g. uniform:4 or power:1:8")
    ver.add_argument("--m-max", type=int, default=None)
    ver.add_argument("--eigenvectors", action="store_true",
                     help="include eigenvector amplitudes in spectrum rows")
    ver.add_argument("--dump-operator", action="store_true",
                     help="include the assembled operator matrix per trial")
    common(ver)

    exp = sub.add_parser("explore", help="empirical-constant sweep (no pass/fail)")
    exp.add_argument("--lambda", dest="lambda_spec", type=str, required=True)
    exp.add_argument("--particles", type=str, required=True)
    common(exp)

    ctr = sub.add_parser("counterexample", help="overlap floor growth in N")
    ctr.add_argument("--lambda", dest="lambda_spec", type=str, required=True)
    ctr.add_argument("--particles", type=str, required=True)
    ctr.add_argument("--k-equals-n", action="store_true",
                     help="re-resolve the parametric profile with K = N per run")
    common(ctr)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and args.check in ("thm1", "occupation"):
        try:
            args.particles = int(args.particles)
        except ValueError:
            print("verify thm1/occupation take a single particle number",
                  file=sys.stderr)
            return 2
    if args.command == "verify" and args.check in ("thm2", "prop", "norms"):
        if not args.lambda_spec:
            print(f"verify {args.check} requires --lambda", file=sys.stderr)
            return 2

    handlers = {"canonical": _cmd_canonical, "verify": _cmd_verify,
                "explore": _cmd_explore, "counterexample": _cmd_counterexample}
    out_path = _default_out(args.command, args.out)
    started = time.monotonic()
    failure = None
    try:
        config, checks = handlers[args.command](args)
    except (ValueError, ArithmeticError, RuntimeError, OSError,
            MemoryError) as exc:
        config = {"argv": argv if argv is not None else sys.argv[1:]}
        checks = [bounds.TheoremReport(kind="error", params={}, passed=False,
                                       note=f"{type(exc).__name__}: {exc}")]
        failure = exc
    elapsed = time.monotonic() - started
    config["command"] = args.command
    report = build_report(config, checks, elapsed if args.timing else None)
    write_report(report, out_path)
    print(f"elapsed {elapsed:.3f}s, report written to {out_path}", file=sys.stderr)
    if failure is not None:
        print(f"failed: {failure}", file=sys.stderr)
        return 1
    ok = all(c.passed is not False for c in checks)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
