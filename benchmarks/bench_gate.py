"""Correctness gate for one CLI operation's report.

``check(op, exit_code, report)`` returns the list of problems found; an
empty list means the operation counts as a success.  The gate never raises
on a bad report, so one failing operation cannot abort a run.

Each operation carries an ``expect`` dict built with its inputs (see
``workloads.py``) naming what its report must contain.  Reference values use
the tolerances of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import math
from collections import Counter

IDENTITY_TOL = 1e-10   # trace N(N-1), kernel residual, positivity, uniform C_emp
BOUND_TOL = 1e-9       # Yang bound on the largest eigenvalue
SUP_TOL = 1e-8         # dense vs iterative supremum agreement
EIG_CUTOFF = 1e-8      # eigenpairs at or below this are not checked by the CLI

PASS_REQUIRED = {"thm1", "prop_occupation", "prop_BB", "counterexample"}


def check(op: dict, exit_code, report: dict | None) -> list[str]:
    """Problems with one operation's outcome; empty when it passes the gate."""
    if report is None:
        return [f"no report (exit code {exit_code})"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        checks = report["checks"]
        for c in checks:
            if c["kind"] in PASS_REQUIRED and c["pass"] is not True:
                problems.append(f"{c['kind']} check {c['params']} did not pass")
            if c["pass"] is False:
                problems.append(f"{c['kind']} check {c['params']} failed")
        problems += _EXPECT[op["expect"]["type"]](op["expect"], checks, report)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems


def _kinds(checks, expected: dict) -> list[str]:
    counts = Counter(c["kind"] for c in checks)
    if counts != Counter(expected):
        return [f"check counts {dict(counts)} != expected {expected}"]
    return []


def _sweep(expect, checks, report) -> list[str]:
    """thm1 / occupation sweep: one spectrum row per trial, one bound check
    per eigenvalue above the cut-off, trace N(N-1) and the Yang bound <= N."""
    N, target = expect["N"], expect["kind"]
    spectra = [c for c in checks if c["kind"] == "spectrum"]
    above = sum(sum(1 for x in s["details"]["eigenvalues"] if x > EIG_CUTOFF)
                for s in spectra)
    problems = _kinds(checks, {"spectrum": expect["trials"], target: above})
    if report["config"]["seed"] != expect["seed"]:
        problems.append(f"report seed {report['config']['seed']} != {expect['seed']}")
    for s in spectra:
        eig = s["details"]["eigenvalues"]
        if abs(math.fsum(eig) - N * (N - 1)) > IDENTITY_TOL:
            problems.append(f"trial {s['params']['trial']}: trace {math.fsum(eig)!r}")
        if max(eig) > N + BOUND_TOL:
            problems.append(f"trial {s['params']['trial']}: eigenvalue {max(eig)!r} > N")
    return problems


def _prop(expect, checks, report) -> list[str]:
    """Gap operator D >= 0 with the pairing state in its kernel, per N."""
    problems = _kinds(checks, {"prop_BB": len(expect["particles"])})
    for c in checks:
        det = c["details"]
        if det["degenerate"] or not det["kernel_residual"] < IDENTITY_TOL:
            problems.append(f"N={c['params']['N']}: kernel residual "
                            f"{det['kernel_residual']!r}")
        if c["observed"] < -IDENTITY_TOL:
            problems.append(f"N={c['params']['N']}: min eig {c['observed']!r}")
    return problems


def _explore(expect, checks, report) -> list[str]:
    """Every N admissible, full-sector sup >= seniority-zero sup, and C_emp = 0
    for a uniform profile."""
    problems = _kinds(checks, {"conjecture": len(expect["particles"])})
    for c in checks:
        det, n = c["details"], c["params"]["N"]
        if "sup_full" not in det or c["note"]:
            problems.append(f"N={n}: not evaluated on the full sector ({c['note']!r})")
            continue
        if det["seniority_gap"] < -SUP_TOL:
            problems.append(f"N={n}: seniority gap {det['seniority_gap']!r} < 0")
        c_emp = det["c_emp"]
        if c_emp is None or not math.isfinite(c_emp):
            problems.append(f"N={n}: C_emp {c_emp!r}")
        elif expect["uniform"] and abs(c_emp) >= IDENTITY_TOL:
            problems.append(f"N={n}: uniform C_emp {c_emp!r} != 0")
    return problems


def _counterexample(expect, checks, report) -> list[str]:
    """One overlap-floor check per N plus the growth check, which must pass."""
    problems = _kinds(checks, {"counterexample": len(expect["particles"]) + 1})
    growth = [c for c in checks if c["params"].get("aspect") == "growth"]
    if len(growth) != 1 or growth[0]["pass"] is not True:
        problems.append("growth in N not certified")
    return problems


_EXPECT = {"sweep": _sweep, "prop": _prop, "explore": _explore,
           "counterexample": _counterexample}
