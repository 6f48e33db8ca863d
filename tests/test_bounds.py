"""Bound verifiers: ceilings, floors, gap positivity, and the explorers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma2lab.bounds import (block_sups, counterexample_driver,
                              counterexample_sweep,
                              eigenvector_occupation_check, explore_conjecture,
                              norm_recursion_check, proposition_gap,
                              proposition_report, sup_over_states,
                              theorem1_rhs, theorem2_floor, verify_theorem1,
                              verify_theorem2)
from dataclasses import replace
from types import SimpleNamespace

import gamma2lab.bounds as bounds
import gamma2lab.fock as fock
from gamma2lab.canonical import (AntisymmetricTensor, _decompose_clusters,
                                 correlation_measures, youla_decompose)
from gamma2lab.cli import parse_lambda_spec, random_state
from gamma2lab.fock import apply_annihilate_vector, slater_state
import gamma2lab.pairing as pairing
from gamma2lab.pairing import (PairOperator, build_pairing_state,
                               norm_sq_oracles, pair_expectation_and_norm,
                               pairing_states)
from gamma2lab.rdm import compute_gamma2, spectral_decompose

UNIFORM4 = np.full(4, 0.5)


def uniform(k):
    return np.full(k, 1 / np.sqrt(k))


def spectrum(psi):
    return spectral_decompose(compute_gamma2(psi))


def yang_state(n_pairs, m):
    op = PairOperator(uniform(n_pairs))
    return build_pairing_state(op, m).vector.normalized()


@st.composite
def small_states(draw):
    """Random states, Slater determinants and pairing states with d <= 10."""
    kind = draw(st.sampled_from(["random", "slater", "pairing"]))
    if kind == "pairing":
        k = draw(st.integers(1, 5))
        return yang_state(k, draw(st.integers(1, k)))
    d = draw(st.integers(2, 10))
    n = draw(st.integers(2, d))
    if kind == "slater":
        return slater_state(d, draw(st.permutations(range(d)))[:n])
    return random_state(d, n, draw(st.integers(0, 2 ** 31)))


def annihilated_gram(psi, w):
    """<c(w_a) psi, c(w_b) psi> for the columns w_a of w, by annihilating psi."""
    hops = [apply_annihilate_vector(col, psi) for col in w.T]
    return np.array([[a.inner(b) for b in hops] for a in hops])


class TestTheorem1Rhs:
    def test_two_particles_always_two(self):
        for s4 in (0.01, 0.3, 1.0):
            assert theorem1_rhs(2, s4) == 2.0

    def test_elementary_wedge_limit(self):
        for n in (3, 4, 10):
            assert abs(theorem1_rhs(n, 1.0) - n / (1 + (n - 2) / 2)) < 1e-14
        assert abs(theorem1_rhs(4, 1.0) - 2.0) < 1e-14

    def test_uniform_four(self):
        assert abs(theorem1_rhs(4, 0.25) - 3.2) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theorem1_rhs(1, 0.5)
        with pytest.raises(ValueError):
            theorem1_rhs(4, 0.0)
        with pytest.raises(ValueError):
            theorem1_rhs(4, 1.5)

    def test_array_matches_floats(self):
        s4 = np.array([0.01, 0.25, 1.0])
        assert theorem1_rhs(7, s4).tolist() == [theorem1_rhs(7, x) for x in s4.tolist()]
        assert type(theorem1_rhs(7, 0.25)) is float
        for bad in (0.0, 1.5, np.nan):  # one entry out of (0, 1] refuses all
            with pytest.raises(ValueError):
                theorem1_rhs(7, np.array([0.25, bad]))

    @given(st.integers(3, 40),
           st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_in_delocalization(self, n, a, b):
        lo, hi = min(a, b), max(a, b)
        assert theorem1_rhs(n, lo) >= theorem1_rhs(n, hi) - 1e-12
        assert theorem1_rhs(n, lo) <= n


class TestVerifyTheorem1:
    def test_slater_saturates(self):
        reports = verify_theorem1(spectrum(slater_state(4, [0, 1])))
        top = reports[0]
        assert abs(top.observed - 2.0) < 1e-10
        assert abs(top.bound - 2.0) < 1e-10
        assert abs(top.details["sum_lambda4"] - 1.0) < 1e-10
        assert top.passed

    def test_yang_pairing_margin(self):
        reports = verify_theorem1(spectrum(yang_state(4, 2)))
        top = reports[0]
        assert abs(top.observed - 3.0) < 1e-9
        assert abs(top.bound - 3.2) < 1e-9
        assert abs(top.margin - 0.2) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sweep_passes(self, seed):
        for report in verify_theorem1(spectrum(random_state(8, 4, seed))):
            assert report.margin >= -1e-8

    def test_kernel_eigenvalues_excluded(self):
        reports = verify_theorem1(spectrum(slater_state(4, [0, 1])))
        assert len(reports) == 1  # rank-one operator: single nonzero eigenpair

    @given(small_states())
    @settings(max_examples=30, deadline=None)
    def test_matches_canonical_form_oracle(self, psi):
        sd = spectral_decompose(compute_gamma2(psi))
        reports = verify_theorem1(sd)
        kept = [k for k, lam in enumerate(sd.eigenvalues) if lam > 1e-8]
        assert [r.params["eigen_index"] for r in reports] == kept
        for r in reports:
            tensor = AntisymmetricTensor(psi.basis.d, sd.matrices[r.params["eigen_index"]])
            ref = correlation_measures(youla_decompose(tensor))
            assert abs(r.details["sum_lambda4"] - ref.sum_lambda4) < 1e-12
            assert abs(r.details["lambda_max"] - ref.lambda_max) < 1e-12
            assert abs(r.bound - theorem1_rhs(psi.basis.N, ref.sum_lambda4)) < 1e-12


class TestVerifyTheorem2:
    def test_uniform_four(self):
        report = verify_theorem2(UNIFORM4, 4)
        assert abs(report.observed - 3.0) < 1e-9
        assert abs(report.bound - theorem2_floor(4, 0.25, 0.25)) < 1e-14
        assert report.passed

    def test_uniform_eight(self):
        report = verify_theorem2(uniform(8), 4)
        assert abs(report.observed - 3.5) < 1e-9
        assert abs(report.bound - 3.0) < 1e-12
        assert abs(report.margin - 0.5) < 1e-9

    def test_two_particles(self):
        lams = uniform(4)
        report = verify_theorem2(lams, 2)
        assert abs(report.observed - 2.0) < 1e-12
        assert report.margin >= 0

    def test_skips_odd_particle_number(self):
        report = verify_theorem2(UNIFORM4, 3)
        assert report.passed is None and "skipped" in report.note

    def test_skips_outside_regime(self):
        report = verify_theorem2(parse_lambda_spec("power:1:8").values, 4)
        assert report.passed is None and "admissible" in report.note

    def test_skips_short_support(self):
        lams = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
        report = verify_theorem2(lams, 6)
        assert report.passed is None and "admissible" in report.note

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_short_support_is_outside_the_regime(self, data):
        # support s < N/2 forces N lam_max**2 >= N/s > 1: every such profile
        # is skipped before its pairing state is built
        k = data.draw(st.integers(2, 8))
        support = data.draw(st.integers(1, k - 1))
        n = data.draw(st.sampled_from(range(2 * support + 2, 2 * k + 1, 2)))
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=support,
                                     max_size=support))
        lams = np.sqrt(np.sort(weights)[::-1] / np.sum(weights))
        lams = np.concatenate([lams, np.zeros(k - support)])
        report = verify_theorem2(lams, n)
        assert report.passed is None and "admissible" in report.note

    def test_refuses_ascending_profile(self):
        with pytest.raises(ValueError, match="descending"):
            verify_theorem2(np.sqrt([0.2, 0.3, 0.5]), 2)

    def test_norm_beyond_float_range_is_null(self):
        # (M!)^2 e_M = 2.5e348 for uniform:400 at N = 400; the floor holds
        report = verify_theorem2(uniform(400), 400)
        assert report.passed and report.details["norm_sq"] is None
        assert abs(report.observed - 2.0 * 200 * 201 / 400) < 1e-10
        assert verify_theorem2(uniform(22), 22).details["norm_sq"] > 0


class TestPropositionGap:
    def test_uniform_optimality(self):
        op = PairOperator(UNIFORM4)
        result = proposition_gap(op, 4)
        assert result.min_eigenvalue >= -1e-10
        assert result.kernel_residual < 1e-10
        assert not result.degenerate

    def test_two_particle_structure(self):
        # D = 1 - B*B there; the single-pair condensate spans the kernel
        op = PairOperator(uniform(3))
        result = proposition_gap(op, 2)
        assert result.min_eigenvalue >= -1e-10
        assert result.kernel_residual < 1e-10

    def test_nonuniform_profile(self):
        lams = np.array([2.0, 1.0, 1.0, 1.0]) / np.sqrt(7.0)
        result = proposition_gap(PairOperator(lams), 4)
        assert result.min_eigenvalue >= -1e-10
        assert result.kernel_residual < 1e-10

    def test_degenerate_support_reported(self):
        op = PairOperator([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
        result = proposition_gap(op, 6)
        assert result.degenerate
        assert result.min_eigenvalue >= -1e-10
        report = proposition_report(op, 6)
        assert report.passed and "vanishes" in report.note

    def test_odd_particle_number_rejected(self):
        with pytest.raises(ValueError):
            proposition_gap(PairOperator(UNIFORM4), 3)

    def test_tiny_pairing_state_not_degenerate(self):
        # support 8 >= M = 4, though ||Psi_4||^2 underflows to 0
        op = PairOperator(parse_lambda_spec("geometric:1e-30:8").values)
        result = proposition_gap(op, 8)
        assert not result.degenerate
        assert result.min_eigenvalue >= -1e-10
        assert result.kernel_residual < 1e-10


class TestOccupationCheck:
    def test_slater_equality(self):
        reports = eigenvector_occupation_check(spectrum(slater_state(4, [0, 1])))
        assert len(reports) == 1
        assert abs(reports[0].observed - 1.0) < 1e-10
        assert abs(reports[0].bound - 1.0) < 1e-10
        assert reports[0].passed

    def test_yang_pairing_values(self):
        reports = eigenvector_occupation_check(spectrum(yang_state(4, 2)))
        top = reports[0]
        assert abs(top.observed - 0.5) < 1e-9   # occupation 1/2 per mode
        assert abs(top.bound - 3.0 / 8.0) < 1e-9  # (Lambda/2) lam^2 = 3/8
        assert top.passed

    def test_no_eigenvalue_above_tol(self):
        sd = spectrum(random_state(6, 3, 1))
        assert len(eigenvector_occupation_check(sd, tol=2 * sd.eigenvalues[0])) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_sweep(self, seed):
        for report in eigenvector_occupation_check(
                spectrum(random_state(8, 4, 50 + seed))):
            assert report.margin >= -1e-8

    @given(st.integers(2, 10).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(2, d), st.integers(0, 2 ** 31))))
    @settings(max_examples=30, deadline=None)
    def test_matches_annihilation_oracle(self, case):
        psi = random_state(*case)
        sd = spectral_decompose(compute_gamma2(psi))
        for r in eigenvector_occupation_check(sd):
            idx = r.params["eigen_index"]
            lams, vecs = _decompose_clusters(sd.matrices[idx])
            k = r.details["k"]
            plane = annihilated_gram(psi, vecs[:, 2 * k:2 * k + 2])
            assert abs(r.observed - np.linalg.eigvalsh(plane)[0]) < 1e-12
            assert abs(r.bound - 0.5 * sd.eigenvalues[idx] * lams[k] ** 2) < 1e-12
            # the plane holds u_k and v_k of the cluster loop's split
            assert r.observed <= min(plane[0, 0].real, plane[1, 1].real) + 1e-13

    def test_perturbation_moves_numbers_at_roundoff(self):
        # the states of verify occupation --dim 8 --particles 4 --trials 30 --seed 12
        rng = np.random.default_rng(0)
        for t in range(30):
            g = compute_gamma2(random_state(8, 4, 12 + t))
            h = rng.standard_normal(g.mat.shape) + 1j * rng.standard_normal(g.mat.shape)
            moved = replace(g, mat=g.mat + 0.5e-16 * (h + h.conj().T))
            before = eigenvector_occupation_check(spectral_decompose(g))
            after = eigenvector_occupation_check(spectral_decompose(moved))
            assert len(before) == len(after)
            for a, b in zip(before, after):
                assert a.params == b.params
                assert a.details.keys() == {"k", "occupation", "required"}
                assert a.details["k"] == b.details["k"]
                for x, y in ((a.observed, b.observed), (a.bound, b.bound),
                             (a.margin, b.margin)):
                    assert abs(x - y) <= 1e-12


class TestNormRecursion:
    def test_leaves_the_mask_cache_as_it_found_it(self):
        fock.occupation_masks.cache_clear()
        norm_recursion_check(PairOperator(uniform(12)), 12)
        assert fock.occupation_masks.cache_info().currsize == 0

    def test_uniform_saturates_lower_bound(self):
        reports = norm_recursion_check(PairOperator(UNIFORM4), 4)
        m2 = reports[1]
        assert m2.params["M"] == 2
        assert abs(m2.observed - 1.5) < 1e-12
        assert abs(m2.details["lower"] - 1.5) < 1e-12
        assert abs(m2.details["upper"] - 2.0) < 1e-12
        assert all(r.passed for r in reports)

    def test_first_step_is_equality(self):
        reports = norm_recursion_check(PairOperator(uniform(5)), 1)
        assert abs(reports[0].observed - 1.0) < 1e-14
        assert abs(reports[0].details["upper"] - 1.0) < 1e-14

    def test_geometric_profile_strict(self):
        spec = parse_lambda_spec("geometric:0.5:6")
        reports = norm_recursion_check(PairOperator(spec.values), 4)
        for r in reports[1:]:
            assert r.observed < r.details["upper"] - 1e-6
            assert r.observed > r.details["lower"] + 1e-6

    def test_m_max_validated(self):
        with pytest.raises(ValueError):
            norm_recursion_check(PairOperator(UNIFORM4), 5)

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_m_max_must_be_positive(self, m_max):
        with pytest.raises(ValueError):
            norm_recursion_check(PairOperator(UNIFORM4), m_max)

    def test_saturated_bound_passes_at_large_norm(self):
        # At M = 22 the norm is ~3.7e12 and sits ~2.5e-15 (relative) below
        # the lower bound it saturates; an absolute 1e-8 slack rejected it.
        reports = norm_recursion_check(PairOperator(uniform(22)), 22)
        assert all(r.passed for r in reports)
        assert reports[-1].bound > 1e12

    def test_norm_pushed_outside_bound_fails(self, monkeypatch):
        op = PairOperator(uniform(12))
        push = {12: 1.0 - 1e-6}  # relative push below the saturated lower bound

        def pushed_states(op, m_max):
            for m, state in enumerate(pairing_states(op, m_max)):
                yield SimpleNamespace(norm_sq=state.norm_sq * push.get(m, 1.0))

        monkeypatch.setattr(bounds, "pairing_states", pushed_states)
        monkeypatch.setattr(bounds, "norm_sq_oracles",
                            lambda lams, m_max: [norm_sq_oracles(lams, m_max)[m]
                                                 * push.get(m, 1.0)
                                                 for m in range(m_max + 1)])
        reports = norm_recursion_check(op, 12)
        assert all(r.passed for r in reports[:-1])
        last = reports[-1]
        assert last.details["oracle_agreement"] <= 1e-10
        assert last.bound > 1e4 and not last.passed


@pytest.mark.parametrize("run", [
    lambda: verify_theorem2(uniform(12), 8),
    lambda: norm_recursion_check(PairOperator(uniform(12)), 12),
], ids=["thm2", "norms"])
def test_one_log_scan_per_report(monkeypatch, run):
    # thm2 reads its norm off the scan of its expectation, and a norms run
    # reads every M off one scan up to M_max
    calls = []
    scan = pairing._log_pair_sums
    monkeypatch.setattr(pairing, "_log_pair_sums",
                        lambda *args: calls.append(args[2]) or scan(*args))
    run()
    assert len(calls) == 1


class TestSupOverStates:
    def test_single_pair_condensate(self):
        lams = np.array([1.0, 0.0])
        assert abs(sup_over_states(lams, 2, "dense") - 2.0) < 1e-10

    def test_uniform_k_equals_n(self):
        assert abs(sup_over_states(UNIFORM4, 4, "dense") - 3.0) < 1e-10

    def test_uniform_eight_formula(self):
        # 2 M (K - M + 1) / K with K = 8, M = 2
        val = sup_over_states(uniform(8), 4, "iterative")
        assert abs(val - 3.5) < 1e-8

    def test_dense_iterative_agree(self):
        lams = parse_lambda_spec("geometric:0.5:6").values
        dense = sup_over_states(lams, 4, "dense")
        iterative = sup_over_states(lams, 4, "iterative")
        assert abs(dense - iterative) < 1e-8

    def test_dominates_trial_state(self):
        lams = parse_lambda_spec("geometric:0.95:6").values
        report = verify_theorem2(lams, 4)
        assert report.observed is not None
        sup = sup_over_states(lams, 4, "dense")
        assert sup >= report.observed - 1e-9

    def test_yang_bound(self):
        assert sup_over_states(uniform(6), 4, "dense") <= 4 + 1e-9

    def test_seniority_matches_full(self):
        op = PairOperator(parse_lambda_spec("power:1:5").values)
        full = sup_over_states(op.lambdas, 4, "dense")
        assert abs(block_sups(op.lambdas, 4)[0] - full) < 1e-8

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sup_over_states(UNIFORM4, 4, "magic")


class TestExploreConjecture:
    def test_uniform_constant_vanishes(self):
        reports = explore_conjecture(uniform(12), [2, 4, 6])
        for r in reports:
            assert r.passed is None
            assert abs(r.details["c_emp"]) < 1e-10
            assert r.observed <= r.details["ceiling"] + 1e-8
            assert r.observed >= r.details["floor"] - 1e-8

    def test_skips_inadmissible(self):
        reports = explore_conjecture(np.array([1.0]), [2, 3, 4])
        assert all(r.passed is None for r in reports)
        assert any("skipped" in r.note for r in reports)

    def test_geometric_profile_reports(self):
        lams = parse_lambda_spec("geometric:0.8:8").values
        reports = explore_conjecture(lams, [2, 4])
        done = [r for r in reports if r.observed is not None]
        assert done and all("c_emp" in r.details for r in done)


class TestCounterexample:
    def test_power_profile_with_wide_support(self):
        lams = parse_lambda_spec("power:1:8").values
        report = counterexample_driver(lams, 4)
        assert report.passed
        assert report.bound >= report.details["half_sum_floor"]

    def test_single_pair_saturation(self):
        report = counterexample_driver(np.array([1.0, 0.0]), 2)
        assert abs(report.observed - report.bound) < 1e-12
        assert report.passed

    def test_uniform_head_saturates_overlap(self):
        # the uniform profile is the top eigenvector itself
        report = counterexample_driver(uniform(4), 4)
        assert abs(report.observed - report.bound) < 1e-9

    def test_profile_too_short(self):
        with pytest.raises(ValueError):
            counterexample_driver(np.array([1.0]), 4)

    @pytest.mark.parametrize("lams, N", [
        *[(parse_lambda_spec(spec).values, n) for spec, n in (
            ("power:0.5:2", 2), ("power:0.5:10", 10), ("power:0.5:100", 100),
            ("power:0.5:1000", 1000), ("power:1:50", 20), ("geometric:0.9:40", 12))],
        (np.array([0.8, 0.6, 0.0, 0.0]), 4)])
    def test_matches_uniform_state_formula(self, lams, N):
        # For the uniform state on the first N pairs the identity sums in
        # closed form, with L and q the sum and the sum of squares of the head:
        # 2 [(M/N) q + M(N-M)/(N(N-1)) (L^2 - q)]
        M, L, q = N // 2, np.sum(lams[:N]), np.sum(lams[:N] ** 2)
        expected = 2 * (M / N * q + M * (N - M) / (N * (N - 1)) * (L ** 2 - q))
        report = counterexample_driver(lams, N)
        assert abs(report.observed - expected) <= 1e-11 * expected
        assert report.passed

    def test_reads_no_log_form_scan(self, refuse):
        refuse(pairing, "_log_pair_sums", "a log-form scan ran")
        reports = counterexample_sweep(
            [(n, parse_lambda_spec(f"power:0.5:{n}").values) for n in (2, 100, 1000)])
        assert [r.passed for r in reports] == [True] * 4

    @given(st.lists(st.one_of(st.just(0.0), st.just(0.5), st.floats(1e-3, 1.0)),
                    min_size=2, max_size=60).filter(lambda raw: any(raw)),
           st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_log_form_recurrence(self, raw, half):
        # the closed form against the recurrence it replaced, on profiles
        # with zeros and ties
        lams = np.sort(raw)[::-1] / np.linalg.norm(raw)
        N = 2 * min(half, len(lams) // 2)
        expected = pair_expectation_and_norm(lams[:N], np.full(N, 1.0 / np.sqrt(N)),
                                             N // 2)[0]
        observed = counterexample_driver(lams, N).observed
        assert abs(observed - expected) <= 1e-11 * max(1.0, expected)

    def test_exact_at_a_thousand_pairs(self):
        # against exact rationals of the same floats, the test formula above
        lams = parse_lambda_spec("power:0.5:1000").values
        N, M = 1000, 500
        head = [Fraction(x) for x in lams.tolist()]
        L, q = sum(head), sum(x * x for x in head)
        exact = 2 * (Fraction(M, N) * q + Fraction(M * (N - M), N * (N - 1)) * (L * L - q))
        observed = Fraction(counterexample_driver(lams, N).observed)
        assert abs(observed - exact) <= Fraction(1e-14) * exact

    def test_refuses_non_canonical_profiles(self):
        with pytest.raises(ValueError, match="descending"):
            counterexample_driver(np.array([0.6, 0.8]), 2)
        with pytest.raises(ValueError, match="sum lam"):
            counterexample_driver(np.array([1.0, 1.0]), 2)

    @pytest.mark.parametrize("n_list", [(8, 4, 6), (4, 4)])
    def test_sweep_refuses_unordered_particle_numbers(self, n_list):
        profiles = [(n, parse_lambda_spec(f"power:0.5:{n}").values) for n in n_list]
        with pytest.raises(ValueError, match="strictly increasing"):
            counterexample_sweep(profiles)

    def test_sweep_growth(self):
        profiles = [(n, parse_lambda_spec(f"power:1:{n}").values)
                    for n in (4, 6, 8)]
        reports = counterexample_sweep(profiles)
        growth = reports[-1]
        assert growth.params["aspect"] == "growth"
        assert growth.passed
        assert growth.margin > 0
