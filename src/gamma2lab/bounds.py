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

The eigenpair checks take a :class:`rdm.SpectralData`, of one state or of
a batch, and read one object from it: the stack of eigenvector coefficient
matrices.  ``thm1`` takes sum lam**4 and lam_max of every kept eigenvector
of the batch from one batched product over that stack, and
``prop_occupation`` reads the pair planes of its matrices off one batched
SVD and takes the minimum of every ||c(w) psi||^2 over each plane, a
quadratic form in its state's one-body matrix, which is a partial trace of
the reduced operator.  Neither touches the state again.

Default tolerances: 1e-8 for bound margins, 1e-10 for structural identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .canonical import CanonicalForm, plane_minima
from .fock import SectorSizeError, SectorVector, enumerate_sector
from .pairing import (DENSE_CAP, PairOperator, admit_gram, admit_pair_blocks,
                      apply_B, apply_B_star, dense_b_matrix, norm_sq_oracle,
                      pair_blocks, pair_expectation, pair_grams,
                      pairing_amplitudes, pairing_states)
from .rdm import SpectralData, correlation_invariants

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


def _check_descending(lams: np.ndarray) -> None:
    """The coefficient order :class:`CanonicalForm` requires."""
    if np.any(np.diff(lams) > 1e-12):
        raise ValueError("coefficients must be non-negative and descending")


def theorem1_rhs(N: int, sum_lambda4: float | np.ndarray) -> float | np.ndarray:
    """Eigenvalue ceiling N / (1 + (N-2)/2 * sum lam**4), a float for a float
    and an array for an array of sum lam**4, every one of which must lie in
    (0, 1]."""
    if N < 2:
        raise ValueError("the ceiling is defined for N >= 2")
    if not np.all((0.0 < sum_lambda4) & (sum_lambda4 <= 1.0 + 1e-12)):
        raise ValueError("sum_lambda4 must lie in (0, 1]")
    rhs = N / (1.0 + 0.5 * (N - 2) * sum_lambda4)
    return rhs if np.ndim(rhs) else float(rhs)


def _kept(spectral: SpectralData, tol: float, tag: dict | list[dict] | None):
    """The eigenpairs with eigenvalue above ``tol`` of every state, in trial
    order, a single spectrum being a batch of one: the position of each
    one's state in the batch, its eigen index, eigenvalue and coefficient
    matrix; and one tag per state, ``tag`` itself if a list, else ``tag``
    (or none) for every state."""
    values = spectral.eigenvalues.reshape(-1, spectral.eigenvalues.shape[-1])
    members, keep = np.nonzero(values > tol)
    d = spectral.operator.d
    mats = spectral.matrices.reshape(values.shape + (d, d))[members, keep]
    tags = tag if isinstance(tag, list) else [tag or {}] * len(values)
    return members, keep, values[members, keep], mats, tags


def _eigenpair_reports(kind: str, spectral: SpectralData, members: np.ndarray,
                       keep: np.ndarray, observed, bound, margin, details: dict,
                       tol: float, tags: list[dict]) -> list[TheoremReport]:
    """One ``kind`` report per kept eigenpair ``keep[i]`` of state
    ``members[i]``, tagged ``tags[members[i]]``, from the i-th entry of each
    array: ``observed``, ``bound``, ``margin`` (pass means margin >= -tol)
    and every column of ``details``."""
    d, N = spectral.operator.d, spectral.operator.n_particles
    columns = zip(members.tolist(), keep.tolist(), observed.tolist(), bound.tolist(),
                  margin.tolist(), *(col.tolist() for col in details.values()))
    return [TheoremReport(kind=kind, params={"d": d, "N": N, "eigen_index": idx,
                                             **tags[m]},
                          observed=obs, bound=bnd, margin=mar, passed=mar >= -tol,
                          details=dict(zip(details, row)))
            for m, idx, obs, bnd, mar, *row in columns]


def verify_theorem1(spectral: SpectralData, tol: float = BOUND_TOL,
                    tag: dict | list[dict] | None = None) -> list[TheoremReport]:
    """Check the correlational ceiling on every nonzero eigenpair of a
    two-body reduced operator, or of each operator of a batch, whose rows
    come in trial order, each tagged by its entry of the list ``tag``.

    Eigenvalues below ``tol`` are excluded: their eigenvectors are arbitrary
    within the numerical kernel and the ceiling is trivial there anyway.
    The ceiling needs an eigenvector only through sum lam**4, which comes
    with lam_max from the batched identities of
    :func:`rdm.correlation_invariants`, one call over the kept matrices of
    ``spectral.matrices`` of the whole batch; no canonical form is computed.
    """
    members, keep, eigenvalues, mats, tags = _kept(spectral, tol, tag)
    sum_lambda4, lambda_max = correlation_invariants(mats)
    ceilings = theorem1_rhs(spectral.operator.n_particles, sum_lambda4)
    return _eigenpair_reports(
        "thm1", spectral, members, keep, eigenvalues, ceilings, ceilings - eigenvalues,
        {"sum_lambda4": sum_lambda4, "lambda_max": lambda_max}, tol, tags)


def theorem2_floor(N: int, sum_lambda4: float, lambda_max_sq: float) -> float:
    """Trial-state floor N (1 - (N-2)/2 sum lam**4 - (N lam_max**2)**2 / 2)."""
    return N * (1.0 - 0.5 * (N - 2) * sum_lambda4 - 0.5 * (N * lambda_max_sq) ** 2)


def verify_theorem2(phi, N: int, tol: float = BOUND_TOL) -> TheoremReport:
    """Check that the normalized M = N/2 pairing state built from phi's
    coefficients pushes <phi, G phi> above the correlational floor.

    With x = lam**2, Psi_M = (B*)^M |vacuum> and B = sum_k lam_k b_k,

        <phi, G phi> = 2 ||B Psi_M||^2 / ||Psi_M||^2
                     = 2 sum_{|T|=M-1} prod_T x (sum_{k not in T} x_k)^2 / e_M(x),

    read off the log-form recurrence of :func:`pairing.pair_expectation`
    in O(K M); no state is built.  ``details.norm_sq`` is
    :func:`pairing.norm_sq_oracle`, (M!)^2 e_M(x), or None where that
    exceeds the float range.  Preconditions (N even, N lam_max**2 <= 1,
    coefficient support >= N/2) are reported as skipped, not failed:
    outside them the floor is not asserted.
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
    lams = PairOperator(lams).lambdas  # finite, non-negative, sum lam**2 = 1
    if np.count_nonzero(lams) < N // 2:
        return skipped("pairing state vanishes: support smaller than N/2")
    _check_descending(lams)
    observed = pair_expectation(lams, lams, N // 2)
    norm_sq = norm_sq_oracle(lams, N // 2)
    bound = theorem2_floor(N, s4, lmax_sq)
    margin = observed - bound
    return TheoremReport(kind="thm2", params=params, observed=observed,
                         bound=bound, margin=margin, passed=margin >= -tol,
                         details={"norm_sq": norm_sq if np.isfinite(norm_sq) else None})


class GapResult(NamedTuple):
    min_eigenvalue: float
    kernel_residual: float
    degenerate: bool


def admit_proposition(op: PairOperator, N: int) -> None:
    """Refuse N before any solve: ValueError unless N is a positive even
    integer, :class:`SectorSizeError` if its pair blocks exceed the caps.
    :func:`proposition_gap` builds each block's Gram on M = (N - s) / 2
    pairs; the largest is the seniority-zero one."""
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    admit_gram(op.n_pairs, N // 2)
    admit_pair_blocks(op.n_pairs, N)


def proposition_gap(op: PairOperator, N: int) -> GapResult:
    """Positivity and optimality of the pair-operator inequality.

    D = N/2 - (N-2)/4 sum lam^2 (n_up + n_down) - B*B is block diagonal over
    the pair blocks of the (d, N) sector (see :func:`pairing.pair_blocks`), so
    its smallest eigenvalue is the minimum over batched dense solves, one
    per batch of blocks; the full sector is never built.  Each block of D is
    written in place over the Gram G = B*B of :func:`pairing.pair_grams`: the
    pair numbers are broken + 2 diag G, so the diagonal of D is
    N/2 (1 - diag G) - (N-2)/4 broken and its off-diagonal -G.  D is positive
    semidefinite, and the M = N/2 pairing state spans (part of) its kernel
    whenever that state is nonzero, that is whenever at least M of the
    lam_k are nonzero (else ``degenerate``).  The returned kernel residual
    is ||D Psi|| / ||Psi|| on the seniority-zero block, with Psi read off
    its closed form on that block's basis (:func:`pairing.pairing_amplitudes`),
    so nothing outside the blocks is built; NaN for a vanishing state.
    """
    admit_proposition(op, N)
    min_eig = np.inf
    for blocks in pair_blocks(op.lambdas, N):
        gap = pair_grams(blocks.coeffs, (N - blocks.seniority) // 2)
        diag = np.arange(gap.shape[-1])
        gram_diag = gap[:, diag, diag]
        np.negative(gap, out=gap)
        gap[:, diag, diag] = (0.5 * N * (1.0 - gram_diag)
                              - 0.25 * (N - 2) * blocks.broken[:, None])
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gap).min()))
        if blocks.seniority == 0:
            amps = pairing_amplitudes(op.lambdas, N // 2)
            residual = (float("nan") if amps is None else
                        float(np.linalg.norm(gap[0] @ amps) / np.linalg.norm(amps)))
    return GapResult(min_eig, residual, amps is None)


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
                                 tag: dict | list[dict] | None = None) -> list[TheoremReport]:
    """Occupation floor ||c(w) psi||^2 >= (Lambda/2) lam_k**2 for each
    eigenpair with Lambda > ``tol``, each pair k of the canonical form of the
    eigenvector's coefficient matrix in ``spectral.matrices``, and every
    unit w in the plane of u_k and v_k; over a batch of spectra, the rows
    come in trial order, each tagged by its entry of the list ``tag``.

    The paper states the floor for every canonical form, and rotating
    u_k, v_k within their plane leaves the form unchanged, so the floor
    holds on the whole plane and the check compares its minimum.  Each
    occupation ||c(w) psi||^2 is the quadratic form w^T gamma1 conj(w) in
    the one-body matrix ``spectral.one_body``, a partial trace of the
    reduced operator, and :func:`canonical.plane_minima` takes its minimum
    over the planes of all kept eigenvectors of the batch, each against its
    own state's one-body matrix, from one batched SVD.  A tie of
    several pairs is one space, compared with its smallest lam and named by
    its first pair.  Each report names its worst pair k.
    """
    members, keep, eigenvalues, mats, tags = _kept(spectral, tol, tag)
    d = spectral.operator.d
    lams, occ = plane_minima(mats, spectral.one_body.reshape(-1, d, d)[members])
    need = 0.5 * eigenvalues[:, None] * lams ** 2
    excess = occ - need
    rows, k = np.arange(len(keep)), np.argmin(excess, axis=1)
    return _eigenpair_reports(
        "prop_occupation", spectral, members, keep, occ[rows, k], need[rows, k],
        excess[rows, k], {"k": k, "occupation": occ[rows, k],
                          "required": need[rows, k]}, tol, tags)


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
    if M_max < 1:
        raise ValueError(f"no recursion step in M_max = {M_max}")
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


def _top_side(K: int, M: int) -> int:
    """Pairs of the smaller basis on which B*B of M of K pairs has its
    largest eigenvalue: max(M, K + 1 - M), or 0 for the vacuum (M = 0)."""
    return max(M, K + 1 - M) if M else 0


def block_sups(phi, N: int) -> dict[int, float]:
    """Twice the largest eigenvalue of B*B in the pair blocks of each seniority.

    Keys are the numbers s of broken pairs present in the (d, N) sector; the
    largest value is sup <phi, G phi> over the whole sector, the one at s = 0
    the seniority-zero supremum.  A block of M of K' pairs is solved as
    ``pairing.pair_grams`` on max(M, K' + 1 - M) pairs, the smaller basis:
    both sides share their largest eigenvalue (see :mod:`pairing`).  With
    M = 0 the block is the vacuum, where B*B is the 1 x 1 zero.
    """
    op = PairOperator.from_lambdas(_as_lambdas(phi))
    sups: dict[int, float] = {}
    for blocks in pair_blocks(op.lambdas, N):
        s, K = blocks.seniority, blocks.coeffs.shape[1]
        grams = pair_grams(blocks.coeffs, _top_side(K, (N - s) // 2))
        sups[s] = max(sups.get(s, 0.0), 2.0 * float(np.linalg.eigvalsh(grams).max()))
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
    skipped, or the Gram :func:`block_sups` builds for one, exceed the caps,
    :class:`SectorSizeError` is raised before the first N is solved.
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
        if not note:  # the seniority-zero block has the largest Gram
            admit_gram(len(lams), _top_side(len(lams), N // 2))
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

    Takes phi from the profile (K = len(profile) pairs) and the N-particle
    uniform pairing state Psi_M, M = N/2, on the first N pairs, and
    certifies

        <phi, G phi>  >=  (N/2 + 1) (sum_{k<=N} lam_k)^2 / N
                      >=  (1/2) (sum_{k<=N} lam_k)^2.

    The left side is 2 ||B Psi_M||^2 / ||Psi_M||^2 with B from the profile,
    read off the log-form recurrence of :func:`pairing.pair_expectation`
    (state coefficients 1/sqrt(N) on the first N pairs) in O(N M); no state
    is built.  Growing this left side in N while the delocalization ceiling
    stays fixed is what rules out an N-independent strong bound; the
    uniform ceiling 2 / sum lam^4 is reported for that comparison.
    """
    lams = np.asarray(lambda_profile, dtype=np.float64)
    K = len(lams)
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    if K < N:
        raise ValueError(f"profile too short: need at least N={N} coefficients")
    lams = PairOperator(lams).lambdas  # finite, non-negative, sum lam**2 = 1
    _check_descending(lams)
    observed = pair_expectation(lams[:N], np.full(N, 1.0 / np.sqrt(N)), N // 2)
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
