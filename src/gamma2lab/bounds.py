"""Verifiers for the eigenvalue bounds, operator inequalities, and trial states.

Every check produces a :class:`TheoremReport` whose margin is oriented so
that pass means margin >= -tolerance:

* ``thm1``            eigenvalue ceiling; margin = ceiling - eigenvalue.
* ``thm2``            trial-state floor; margin = observed - floor.
* ``prop_BB``         operator positivity; margin = smallest eigenvalue of the
                      gap operator D = N/2 - (N-2)/4 sum lam^2 (n_up + n_down) - B*B.
* ``prop_occupation`` mode-occupation floor; margin = worst occupation excess.
* ``norm_recursion``  two-sided norm inequality; margin = worst one-sided slack,
                      with the tolerance scaled by max(1, |bound|) because
                      the norms grow factorially with M.
* ``counterexample``  pairing-state overlap floor; margin = observed - floor.
* ``conjecture``      reporting only, never pass/fail.

The eigenpair checks take a :class:`rdm.SpectralData` and read one object
from it: the stack of eigenvector coefficient matrices.  ``thm1`` takes
sum lam**4 and lam_max of every eigenvector from one batched product over
that stack, and ``prop_occupation`` decomposes its matrices into canonical
forms for the vectors u_k, v_k in one batched call, evaluating every
||c(u) psi||^2 as a quadratic form in the one-body matrix, a partial trace
of the reduced operator.  Neither touches the state again.

Default tolerances: 1e-8 for bound margins, 1e-10 for structural identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .canonical import CanonicalForm, canonical_forms, canonical_from_lambdas
from .fock import SectorSizeError, SectorVector, enumerate_sector
from .pairing import (DENSE_CAP, PairOperator, admit_pair_blocks, apply_B,
                      apply_B_star, build_pairing_state, dense_b_matrix,
                      norm_sq_oracle, pair_blocks, pair_expectation,
                      pairing_states)
from .rdm import SpectralData, correlation_invariants, one_body_matrix

BOUND_TOL = 1e-8
STRUCTURE_TOL = 1e-10


@dataclass
class TheoremReport:
    """One verified (or reported) inequality with its margin.  Every value is
    plain JSON: None where it does not apply, every float finite."""

    kind: str
    params: dict
    observed: float | None = None
    bound: float | None = None
    margin: float | None = None
    passed: bool | None = None
    details: dict = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "observed": self.observed,
            "bound": self.bound,
            "margin": self.margin,
            "pass": self.passed,
            "details": self.details,
            "note": self.note,
        }


def _as_lambdas(phi) -> np.ndarray:
    if isinstance(phi, CanonicalForm):
        return np.asarray(phi.lambdas, dtype=np.float64)
    return np.asarray(phi, dtype=np.float64)


def theorem1_rhs(N: int, sum_lambda4: float) -> float:
    """Eigenvalue ceiling N / (1 + (N-2)/2 * sum lam**4)."""
    if N < 2:
        raise ValueError("the ceiling is defined for N >= 2")
    if not 0.0 < sum_lambda4 <= 1.0 + 1e-12:
        raise ValueError("sum_lambda4 must lie in (0, 1]")
    return N / (1.0 + 0.5 * (N - 2) * sum_lambda4)


def verify_theorem1(spectral: SpectralData, tol: float = BOUND_TOL,
                    tag: dict | None = None) -> list[TheoremReport]:
    """Check the correlational ceiling on every nonzero eigenpair of a
    two-body reduced operator.

    Eigenvalues below ``tol`` are excluded: their eigenvectors are arbitrary
    within the numerical kernel and the ceiling is trivial there anyway.
    The ceiling needs an eigenvector only through sum lam**4, which comes
    with lam_max from the batched identities of
    :func:`rdm.correlation_invariants` over ``spectral.matrices``; no
    canonical form is computed.
    """
    d, N = spectral.operator.d, spectral.operator.n_particles
    keep = np.flatnonzero(spectral.eigenvalues > tol)
    sum_lambda4, lambda_max = correlation_invariants(spectral.matrices[keep])
    reports = []
    for idx, s4, lmax in zip(keep, sum_lambda4, lambda_max):
        lam_eig = float(spectral.eigenvalues[idx])
        rhs = theorem1_rhs(N, float(s4))
        margin = rhs - lam_eig
        params = {"d": d, "N": N, "eigen_index": int(idx)}
        if tag:
            params.update(tag)
        reports.append(TheoremReport(
            kind="thm1", params=params, observed=lam_eig, bound=rhs,
            margin=margin, passed=margin >= -tol,
            details={"sum_lambda4": float(s4), "lambda_max": float(lmax)}))
    return reports


def theorem2_floor(N: int, sum_lambda4: float, lambda_max_sq: float) -> float:
    """Trial-state floor N (1 - (N-2)/2 sum lam**4 - (N lam_max**2)**2 / 2)."""
    return N * (1.0 - 0.5 * (N - 2) * sum_lambda4 - 0.5 * (N * lambda_max_sq) ** 2)


def verify_theorem2(phi, N: int, tol: float = BOUND_TOL) -> TheoremReport:
    """Check that the normalized M = N/2 pairing state built from phi's
    coefficients pushes <phi, G phi> above the correlational floor.

    Preconditions (N even, N lam_max**2 <= 1, coefficient support >= N/2) are
    reported as skipped, not failed: outside them the floor is not asserted.
    """
    lams = _as_lambdas(phi)
    s4 = float(np.sum(lams ** 4))
    lmax_sq = float(np.max(lams) ** 2) if len(lams) else 0.0
    params = {"N": N, "K": len(lams), "sum_lambda4": s4, "lambda_max_sq": lmax_sq}

    def skipped(reason):
        return TheoremReport(kind="thm2", params=params, passed=None,
                             note=f"skipped: {reason}")

    if N < 2 or N % 2:
        return skipped("N must be a positive even integer")
    if 2 * len(lams) < N:
        return skipped("coefficient list too short for N/2 pairs")
    if N * lmax_sq > 1.0 + 1e-12:
        return skipped(f"outside the admissible regime: N*lambda_max^2 = {N * lmax_sq!r} > 1")
    op = PairOperator.from_lambdas(lams)
    state = build_pairing_state(op, N // 2)
    if state.degenerate:
        return skipped("pairing state vanishes: support smaller than N/2")
    phi_form = canonical_from_lambdas(lams)  # rejects non-canonical coefficients
    observed = pair_expectation(phi_form.lambdas, state)
    bound = theorem2_floor(N, s4, lmax_sq)
    margin = observed - bound
    return TheoremReport(kind="thm2", params=params, observed=observed,
                         bound=bound, margin=margin, passed=margin >= -tol,
                         details={"norm_sq": state.norm_sq})


class GapResult(NamedTuple):
    min_eigenvalue: float
    kernel_residual: float
    degenerate: bool


def admit_proposition(op: PairOperator, N: int) -> None:
    """Refuse N before any solve: ValueError unless N is a positive even
    integer, :class:`SectorSizeError` if its pair blocks exceed the caps."""
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    admit_pair_blocks(op.n_pairs, N)


def proposition_gap(op: PairOperator, N: int) -> GapResult:
    """Positivity and optimality of the pair-operator inequality.

    D = N/2 - (N-2)/4 sum lam^2 (n_up + n_down) - B*B is block diagonal over
    the pair blocks of the (d, N) sector (see :func:`pairing.pair_blocks`), so
    its smallest eigenvalue is the minimum over one batched dense solve per
    seniority; the full sector is never built.  D is positive semidefinite,
    and the M = N/2 pairing state spans (part of) its kernel whenever that
    state is nonzero; the returned kernel residual is ||D Psi|| / ||Psi||,
    taken on the seniority-zero block (NaN for a vanishing state).
    """
    admit_proposition(op, N)
    min_eig = np.inf
    for blocks in pair_blocks(op.lambdas, N):
        gap = -np.matmul(blocks.b.transpose(0, 2, 1), blocks.b)
        diag = np.arange(gap.shape[-1])
        gap[:, diag, diag] += 0.5 * N - 0.25 * (N - 2) * blocks.pair_number
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gap).min()))
        if blocks.seniority == 0:
            state = build_pairing_state(op, N // 2)
            amps = state.pair_amplitudes
            residual = (float("nan") if state.degenerate else
                        float(np.linalg.norm(gap[0] @ amps) / np.linalg.norm(amps)))
    return GapResult(min_eig, residual, state.degenerate)


def proposition_report(op: PairOperator, N: int,
                       tol: float = STRUCTURE_TOL) -> TheoremReport:
    """Wrap :func:`proposition_gap` as a pass/fail report."""
    result = proposition_gap(op, N)
    ok = result.min_eigenvalue >= -tol
    if not result.degenerate:
        ok = ok and result.kernel_residual < tol
    return TheoremReport(
        kind="prop_BB",
        params={"N": N, "K": op.n_pairs, "lambdas": op.lambdas.tolist()},
        observed=result.min_eigenvalue, bound=0.0, margin=result.min_eigenvalue,
        passed=ok,
        details={"kernel_residual": (None if result.degenerate
                                     else result.kernel_residual),
                 "degenerate": result.degenerate},
        note="pairing state vanishes; only positivity checked" if result.degenerate else "")


def eigenvector_occupation_check(spectral: SpectralData, tol: float = BOUND_TOL,
                                 tag: dict | None = None) -> list[TheoremReport]:
    """Occupation floor ||c_{k,s} psi||^2 >= (Lambda/2) lam_k**2 for each
    eigenpair with Lambda > ``tol``, with lam_k, u_k, v_k from the canonical
    form of the eigenvector's coefficient matrix in ``spectral.matrices``.

    The kept matrices are decomposed in one :func:`canonical.canonical_forms`
    call.  Each occupation ||c(u) psi||^2 is the quadratic form
    u^T gamma1 conj(u) in the one-body matrix, which
    :func:`rdm.one_body_matrix` takes from the reduced operator by partial
    trace; the u_k, v_k of all kept eigenvectors are evaluated together, and
    each report names its worst (k, spin).
    """
    d, N = spectral.operator.d, spectral.operator.n_particles
    keep = np.flatnonzero(spectral.eigenvalues > tol)
    if not keep.size:
        return []
    gamma1 = one_body_matrix(spectral.operator)
    forms = canonical_forms(spectral.matrices[keep])
    vecs = forms.vectors  # member columns u_1, v_1, u_2, v_2, ..., zero-padded
    occ = np.einsum("nia,nia->na", vecs, np.matmul(gamma1, vecs.conj())).real
    half = 0.5 * spectral.eigenvalues[keep]
    need = np.repeat(half[:, None] * forms.lambdas ** 2, 2, axis=1)
    excess = occ - need
    excess[np.arange(excess.shape[1]) >= 2 * forms.n_pairs[:, None]] = np.inf
    worst_col = np.argmin(excess, axis=1)
    reports = []
    for idx, row_occ, row_need, at, worst in zip(
            keep, occ, need, worst_col, excess[np.arange(len(keep)), worst_col]):
        worst_at = {"k": int(at) // 2, "spin": ("up", "down")[at % 2],
                    "occupation": float(row_occ[at]), "required": float(row_need[at])}
        params = {"d": d, "N": N, "eigen_index": int(idx)}
        if tag:
            params.update(tag)
        reports.append(TheoremReport(
            kind="prop_occupation", params=params,
            observed=worst_at["occupation"], bound=worst_at["required"],
            margin=float(worst), passed=bool(worst >= -tol), details=worst_at))
    return reports


def norm_recursion_check(op: PairOperator, M_max: int,
                         tol: float = BOUND_TOL) -> list[TheoremReport]:
    """Two-sided norm inequality for the pairing states, M = 1 .. M_max:

        (1 - (M-1) lam_max**2) M ||Psi_{M-1}||^2 <= ||Psi_M||^2
                                                 <= M ||Psi_{M-1}||^2.

    A step passes when its worst slack is at least -tol * max(1, |lower|):
    the norms reach 1e12 and beyond for a few dozen pairs, where an absolute
    slack would be below the rounding of a bound the uniform profile
    saturates.  Each report also carries the independent combinatorial norm,
    the relative agreement between construction and oracle, and the
    empirical second-order residual of the norm ratio (reported, never
    asserted: its coefficient is not pinned down).
    """
    if M_max > op.n_pairs:
        raise ValueError("M_max cannot exceed the number of pairs")
    lmax_sq = float(np.max(op.lambdas) ** 2)
    s4 = float(np.sum(op.lambdas ** 4))
    reports = []
    states = pairing_states(op, M_max)
    prev = next(states).norm_sq
    for M, state in enumerate(states, start=1):
        built = state.norm_sq
        oracle = norm_sq_oracle(op.lambdas, M)
        agree = abs(built - oracle) / max(1.0, abs(oracle))
        lower = (1.0 - (M - 1) * lmax_sq) * M * prev
        upper = M * prev
        margin = min(built - lower, upper - built,
                     oracle - lower, upper - oracle)
        second_order = (built / (M * prev) - (1.0 - (M - 1) * s4)
                        if prev > 0 else None)
        reports.append(TheoremReport(
            kind="norm_recursion",
            params={"M": M, "K": op.n_pairs, "lambdas": op.lambdas.tolist()},
            observed=built, bound=lower, margin=float(margin),
            passed=margin >= -tol * max(1.0, abs(lower)) and agree <= 1e-10,
            details={"lower": lower, "upper": upper, "oracle": oracle,
                     "oracle_agreement": agree,
                     "second_order_residual": second_order}))
        prev = built
    return reports


def sup_over_states(phi, N: int, method: str = "dense") -> float:
    """sup over normalized N-particle states of <phi, G_psi phi>.

    The supremum equals twice the largest eigenvalue of B*B on the N-particle
    sector, with B built from phi's coefficients; no search is involved.
    ``dense`` diagonalizes the assembled matrix, ``iterative`` runs a
    matrix-free Lanczos iteration; the two must agree to 1e-8 where both run.
    Both work on the full sector and serve as oracles for the pair-block
    supremum that :func:`explore_conjecture` uses.
    """
    lams = _as_lambdas(phi)
    op = PairOperator.from_lambdas(lams)
    d = op.d
    if N < 2 or N > d:
        raise ValueError(f"no admissible sector (d={d}, N={N})")
    sec = enumerate_sector(d, N)
    if method == "dense":
        if sec.dim > DENSE_CAP:
            raise SectorSizeError(
                f"sector dim {sec.dim} exceeds the dense cap {DENSE_CAP}")
        bmat = dense_b_matrix(op, N)
        top = float(np.linalg.eigvalsh(bmat.T @ bmat).max())
        return 2.0 * top
    if method == "iterative":
        import scipy.sparse.linalg

        def matvec(x):
            vec = SectorVector(sec, x)
            return apply_B_star(op, apply_B(op, vec)).amplitudes

        lin = scipy.sparse.linalg.LinearOperator(
            (sec.dim, sec.dim), matvec=matvec, dtype=np.complex128)
        v0 = np.ones(sec.dim) / np.sqrt(sec.dim)
        vals = scipy.sparse.linalg.eigsh(
            lin, k=1, which="LA", v0=v0, ncv=min(sec.dim, 40), tol=0,
            return_eigenvectors=False)
        return 2.0 * float(vals[0])
    raise ValueError(f"unknown method {method!r}")


def _top_sup(b: np.ndarray) -> float:
    """Twice the largest eigenvalue of B*B over a batch of blocks of B."""
    if b.shape[1] == 0:
        return 0.0
    bt = b.transpose(0, 2, 1)
    gram = np.matmul(b, bt) if b.shape[1] < b.shape[2] else np.matmul(bt, b)
    return 2.0 * float(np.linalg.eigvalsh(gram).max())


def block_sups(phi, N: int) -> dict[int, float]:
    """Twice the largest eigenvalue of B*B in the pair blocks of each seniority.

    Keys are the numbers s of broken pairs present in the (d, N) sector; the
    largest value is sup <phi, G phi> over the whole sector, the one at s = 0
    the seniority-zero supremum.
    """
    op = PairOperator.from_lambdas(_as_lambdas(phi))
    sups: dict[int, float] = {}
    for blocks in pair_blocks(op.lambdas, N):
        s = blocks.seniority
        sups[s] = max(sups.get(s, 0.0), _top_sup(blocks.b))
    return sups


def explore_conjecture(phi, N_list) -> list[TheoremReport]:
    """Empirical constant for the highly correlated regime, reporting only.

    For each admissible even N the supremum S = sup <phi, G phi> over the
    full (d, N) sector is computed and the constant
    C_emp = (S/N - 1 + (N-2)/2 sum lam^4) / (N lam_max^2)^2 is reported,
    together with the trial-state floor and ceiling for context.  The
    statement being probed is open, so no report here ever passes or fails.
    S is the largest of the :func:`block_sups`; the seniority-zero value is
    recorded too, and ``seniority_gap`` is S minus it, so any gain from
    broken pairs is visible.  If the pair blocks of any N that is not
    skipped exceed the caps, :class:`SectorSizeError` is raised before the
    first N is solved.
    """
    lams = _as_lambdas(phi)
    s4 = float(np.sum(lams ** 4))
    lmax_sq = float(np.max(lams) ** 2)
    d = PairOperator.from_lambdas(lams).d

    def skip_note(N):
        if N < 2 or N % 2 or N > d:
            return "skipped: N not admissible"
        if N * lmax_sq > 1.0 + 1e-12:
            return f"skipped: N*lambda_max^2 = {N * lmax_sq!r} > 1"
        return ""

    notes = [skip_note(N) for N in N_list]
    for N, note in zip(N_list, notes):
        if not note:
            admit_pair_blocks(len(lams), N)
    reports = []
    for N, note in zip(N_list, notes):
        params = {"N": int(N), "K": len(lams), "sum_lambda4": s4,
                  "lambda_max_sq": lmax_sq}
        if note:
            reports.append(TheoremReport(kind="conjecture", params=params,
                                         passed=None, note=note))
            continue
        sups = block_sups(lams, N)
        sup_sen, sup = sups[0], max(sups.values())
        c_emp = (sup / N - 1.0 + 0.5 * (N - 2) * s4) / (N * lmax_sq) ** 2
        details = {"sup_seniority_zero": sup_sen, "sector_dim": comb(d, N),
                   "sup_full": sup, "seniority_gap": sup - sup_sen,
                   "c_emp": c_emp, "floor": theorem2_floor(N, s4, lmax_sq),
                   "ceiling": theorem1_rhs(N, s4)}
        reports.append(TheoremReport(kind="conjecture", params=params,
                                     observed=sup, passed=None, details=details))
    return reports


def counterexample_driver(lambda_profile, N: int,
                          tol: float = BOUND_TOL) -> TheoremReport:
    """Pairing-state overlap floor for a fixed coefficient profile.

    Builds phi from the profile (K = len(profile) pairs) and the N-particle
    uniform pairing state on the first N pairs, then certifies

        <phi, G phi>  >=  (N/2 + 1) (sum_{k<=N} lam_k)^2 / N
                      >=  (1/2) (sum_{k<=N} lam_k)^2.

    Growing this left side in N while the delocalization ceiling stays fixed
    is what rules out an N-independent strong bound; the uniform ceiling
    2 / sum lam^4 is reported for that comparison.
    """
    lams = np.asarray(lambda_profile, dtype=np.float64)
    K = len(lams)
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    if K < N:
        raise ValueError(f"profile too short: need at least N={N} coefficients")
    uniform = np.zeros(K)
    uniform[:N] = 1.0 / np.sqrt(N)
    phi_form = canonical_from_lambdas(lams)  # rejects non-canonical coefficients
    state = build_pairing_state(PairOperator.from_lambdas(uniform), N // 2)
    observed = pair_expectation(phi_form.lambdas, state)
    head_sum = float(np.sum(lams[:N]))
    overlap_floor = (0.5 * N + 1.0) * head_sum ** 2 / N
    half_floor = 0.5 * head_sum ** 2
    margin = observed - overlap_floor
    return TheoremReport(
        kind="counterexample",
        params={"N": N, "K": K, "head_sum": head_sum},
        observed=observed, bound=overlap_floor, margin=margin,
        passed=margin >= -tol,
        details={"half_sum_floor": half_floor,
                 "uniform_ceiling": 2.0 / float(np.sum(lams ** 4))})


def counterexample_sweep(profiles, tol: float = BOUND_TOL) -> list[TheoremReport]:
    """Run the overlap floor over (N, profile) pairs and check growth in N."""
    reports = [counterexample_driver(lams, N, tol) for N, lams in profiles]
    if len(reports) > 1:
        values = [r.observed for r in reports]
        increasing = all(b > a for a, b in zip(values, values[1:]))
        reports.append(TheoremReport(
            kind="counterexample",
            params={"aspect": "growth",
                    "N_list": [r.params["N"] for r in reports]},
            observed=values[-1], bound=values[0],
            margin=min(b - a for a, b in zip(values, values[1:])),
            passed=increasing,
            details={"values": values}))
    return reports
