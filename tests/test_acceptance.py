"""Acceptance suite: one test per criterion, each printing a pass line.

Run as ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they pass).  All tolerances are fixed here, not
configurable, so this module is the contract.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gamma2lab.bounds import (counterexample_driver, proposition_gap,
                              sup_over_states, theorem1_rhs, theorem2_floor,
                              verify_theorem2)
from gamma2lab.canonical import (AntisymmetricTensor, canonical_from_lambdas,
                                 correlation_measures,
                                 random_tensor, reconstruct, tensor_inner,
                                 youla_decompose)
from gamma2lab.cli import parse_lambda_spec, random_state
from gamma2lab.fock import slater_state
from gamma2lab.pairing import (PairOperator, annihilation_identity_check,
                               build_pairing_state, commutator_defect,
                               norm_sq_oracle)
from gamma2lab.rdm import (compute_gamma2, expectation, expectation_fast,
                           spectral_decompose)

SWEEP_SECTORS = [(8, 4), (6, 3)]
SWEEP_TRIALS = 100


def _announce(number, label):
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


@pytest.fixture(scope="module")
def sweep():
    """Shared 200-state sweep: reduced operators and full spectra."""
    cases = []
    t0 = time.monotonic()
    for d, n in SWEEP_SECTORS:
        for trial in range(SWEEP_TRIALS):
            psi = random_state(d, n, seed=1000 * d + trial)
            cases.append((d, n, compute_gamma2(psi)))
    gamma_elapsed = time.monotonic() - t0
    spectra = [(d, n, g, spectral_decompose(g)) for d, n, g in cases]
    return {"cases": spectra, "gamma_elapsed": gamma_elapsed}


def test_c01_trace_identity(sweep):
    for d, n, g, _ in sweep["cases"]:
        assert abs(np.trace(g.mat).real - n * (n - 1)) < 1e-10
    assert sweep["gamma_elapsed"] < 30.0
    _announce(1, "trace identity, 100 seeds x 2 sectors")


def test_c02_yang_bound(sweep):
    for d, n, _, sd in sweep["cases"]:
        assert sd.eigenvalues.max() <= n + 1e-9
    _announce(2, "Yang bound on every spectrum")


def test_c03_theorem1_sweep(sweep):
    t0 = time.monotonic()
    violations = 0
    for d, n, _, sd in sweep["cases"]:
        for lam, mat in zip(sd.eigenvalues, sd.matrices):
            if lam <= 1e-8:
                continue
            s4 = correlation_measures(youla_decompose(AntisymmetricTensor(d, mat))).sum_lambda4
            if lam > theorem1_rhs(n, s4) + 1e-8:
                violations += 1
    assert violations == 0
    assert time.monotonic() - t0 < 120.0
    _announce(3, "correlational ceiling on every eigenpair")


def test_c04_slater_saturation():
    sd = spectral_decompose(compute_gamma2(slater_state(4, [0, 1])))
    top_val, top_vec = sd.eigenvalues[0], AntisymmetricTensor(4, sd.matrices[0])
    assert abs(top_val - 2.0) < 1e-10
    s4 = correlation_measures(youla_decompose(top_vec)).sum_lambda4
    assert abs(s4 - 1.0) < 1e-10
    assert top_val <= theorem1_rhs(2, s4) + 1e-10
    _announce(4, "Slater state saturates the ceiling")


def test_c05_yang_pairing_spectrum():
    for n in (2, 4, 6):
        lams = np.full(n, 1 / np.sqrt(n))
        op = PairOperator.from_lambdas(lams)
        psi = build_pairing_state(op, n // 2).vector.normalized()
        sd = spectral_decompose(compute_gamma2(psi))
        assert abs(sd.eigenvalues[0] - (n / 2 + 1)) < 1e-9
        phi_n = reconstruct(canonical_from_lambdas(lams))
        top_vec = AntisymmetricTensor(2 * n, sd.matrices[0])
        assert abs(tensor_inner(phi_n, top_vec)) > 1 - 1e-8
    _announce(5, "pairing-state top eigenpair N/2 + 1")


def test_c06_proposition_positivity_and_optimality():
    def profiles(k):
        spiked = np.ones(k)
        spiked[0] = 2.0
        return [np.ones(k), spiked, 0.5 ** np.arange(1, k + 1)]

    for k in (4, 6):
        for raw in profiles(k):
            op = PairOperator.from_lambdas(raw / np.linalg.norm(raw))
            for n in (2, 4):
                result = proposition_gap(op, n)
                assert result.min_eigenvalue >= -1e-10
                assert not result.degenerate
                assert result.kernel_residual < 1e-10
    _announce(6, "gap operator positive with pairing-state kernel")


def test_c07_theorem2_floor():
    report = verify_theorem2(np.full(4, 0.5), 4, tol=1e-8)
    assert report.passed and abs(report.observed - 3.0) < 1e-9
    assert abs(report.bound - theorem2_floor(4, 0.25, 0.25)) < 1e-14

    report = verify_theorem2(np.full(8, 1 / np.sqrt(8)), 4, tol=1e-8)
    assert report.passed and abs(report.observed - 3.5) < 1e-9

    # power:1 profile sits outside the guaranteed regime (N lam_max^2 > 1);
    # the floor is then far below zero and the inequality is checked directly
    lams = parse_lambda_spec("power:1:8").values
    psi_hat = build_pairing_state(PairOperator.from_lambdas(lams), 2
                                  ).vector.normalized()
    observed = expectation_fast(canonical_from_lambdas(lams), psi_hat)
    floor = theorem2_floor(4, float(np.sum(lams ** 4)), float(lams[0] ** 2))
    assert observed >= floor - 1e-8
    _announce(7, "trial-state floor on three profiles")


def test_c08_norm_oracle_equivalence():
    profiles = {
        "uniform": lambda k: np.ones(k),
        "geometric": lambda k: 0.5 ** np.arange(1, k + 1),
        "power": lambda k: 1.0 / np.arange(1, k + 1),
    }
    for k in range(1, 7):
        for raw_of in profiles.values():
            raw = raw_of(k)
            op = PairOperator.from_lambdas(raw / np.linalg.norm(raw))
            lmax_sq = float(np.max(op.lambdas) ** 2)
            prev = 1.0
            for m in range(1, k + 1):
                built = build_pairing_state(op, m).norm_sq
                oracle = norm_sq_oracle(op.lambdas, m)
                assert abs(built - oracle) <= 1e-10 * max(1.0, abs(oracle))
                lower = (1.0 - (m - 1) * lmax_sq) * m * prev
                upper = m * prev
                assert lower - 1e-10 <= built <= upper + 1e-10
                prev = built
    _announce(8, "combinatorial norm oracle and two-sided inequality")


def test_c09_identity_residuals():
    profiles = [np.ones(6), 1.0 / np.arange(1, 7)]
    for raw in profiles:
        op = PairOperator.from_lambdas(raw / np.linalg.norm(raw))
        for m in range(0, 4):
            for k in range(op.n_pairs):
                for spin in ("up", "down"):
                    res = annihilation_identity_check(op, m, k, spin)
                    assert res.annihilation < 1e-12
                    assert res.rearranged < 1e-12
    for k, n_list in ((2, (2,)), (4, (2, 4))):
        raw = 1.0 / np.arange(1, k + 1)
        op = PairOperator.from_lambdas(raw / np.linalg.norm(raw))
        for n in n_list:
            assert commutator_defect(op, n) < 1e-12
    _announce(9, "pairing-state identities and quasi-boson commutator")


def test_c10_dual_path_consistency():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        phi = random_tensor(8, rng)
        psi = random_state(8, 4, 2000 + seed)
        g = compute_gamma2(psi)
        assembled = expectation(phi, g)
        fast = expectation_fast(youla_decompose(phi), psi)
        assert abs(assembled - fast) < 1e-9
    lams = parse_lambda_spec("geometric:0.6:6").values
    dense = sup_over_states(lams, 4, "dense")
    iterative = sup_over_states(lams, 4, "iterative")
    assert abs(dense - iterative) < 1e-8
    _announce(10, "assembled vs matrix-free quadratic forms")


def test_c11_counterexample_growth():
    values = []
    for n in (4, 6, 8):
        lams = parse_lambda_spec(f"power:1:{n}").values
        report = counterexample_driver(lams, n, tol=1e-8)
        half_floor = 0.5 * float(np.sum(lams[:n])) ** 2
        assert report.observed >= half_floor - 1e-8
        assert report.passed  # also clears the sharper overlap floor
        values.append(report.observed)
    assert values[0] < values[1] < values[2]
    _announce(11, "overlap floor grows strictly in N")


def test_c12_reproducible_reports(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "gamma2lab", "verify", "thm1",
               "--dim", "6", "--particles", "3", "--trials", "5",
               "--seed", "11", "--threads", "1", "--out", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["schema_version"] == 1
    _announce(12, "byte-identical single-threaded reports")
