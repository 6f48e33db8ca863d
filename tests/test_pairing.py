"""Pair operator, pairing states, exact norms, and the operator identities."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma2lab import pairing
from gamma2lab.fock import (SectorMismatchError, SectorSizeError,
                            apply_annihilate, apply_create, enumerate_sector,
                            vacuum_state)
from gamma2lab.pairing import (PairOperator, _log_pair_sums,
                               annihilation_identity_check, apply_B,
                               apply_B_star, build_pairing_state,
                               commutator_defect, dense_b_matrix,
                               norm_sq_oracle, norm_sq_oracles,
                               pair_expectation_and_norm,
                               pair_number_diagonal, pairing_amplitudes)

from test_fock import dense_annihilator, random_vector, stack

UNIFORM4 = np.full(4, 0.5)

PROFILES = {
    "uniform": lambda k: np.ones(k),
    "geometric": lambda k: 0.5 ** np.arange(1, k + 1),
    "power": lambda k: 1.0 / np.arange(1, k + 1),
}


def make_op(raw):
    raw = np.asarray(raw, dtype=float)
    return PairOperator.from_lambdas(raw / np.linalg.norm(raw))


def brute_esp(values, order):
    return math.fsum(math.prod(c) for c in itertools.combinations(values, order))


def exact_pair_sums(mu, lam):
    """E_j = e_j(x) and R2_j = sum_{|T|=j} prod_T x (sum_{k not in T} c_k)^2
    for every j <= K, in exact rationals, with x = lam^2 and c = lam mu.

    The recurrence of ``pairing._log_pair_sums`` run linearly on Fractions:
    j descends so that each step reads the previous pair's j - 1 entries.
    """
    K = len(lam)
    E = [Fraction(1)] + [Fraction(0)] * K
    R1 = [Fraction(0)] * (K + 1)
    R2 = [Fraction(0)] * (K + 1)
    for lk, mk in zip(lam, mu):
        x, c = Fraction(lk) ** 2, Fraction(lk) * Fraction(mk)
        for j in range(K, -1, -1):
            R2[j] += 2 * c * R1[j] + c * c * E[j] + (x * R2[j - 1] if j else 0)
            R1[j] += c * E[j] + (x * R1[j - 1] if j else 0)
            E[j] += x * E[j - 1] if j else 0
    return E, R2


def pairing_state_by_fock_ops(op, m):
    """Independent construction: repeated full-space B* from the vacuum."""
    vec = vacuum_state(op.d)
    for _ in range(m):
        vec = apply_B_star(op, vec)
    return vec


class TestPairOperatorValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PairOperator.from_lambdas([1.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PairOperator.from_lambdas(np.array([np.sqrt(2.0), -1.0]) / np.sqrt(3.0))

    @pytest.mark.parametrize("lams", [[np.nan, 1.0], [1.0, np.inf], [np.nan]])
    def test_rejects_non_finite(self, lams):
        # every comparison with NaN is false, so the norm test alone lets it in
        with pytest.raises(ValueError, match="finite"):
            PairOperator.from_lambdas(lams)


class TestApplyB:
    def test_single_pair(self):
        op = PairOperator.from_lambdas([1.0])
        psi = pairing_state_by_fock_ops(op, 1)
        out = apply_B(op, psi)
        assert out.basis.N == 0
        assert abs(out.amplitudes[0] - 1.0) < 1e-15

    def test_seniority_blocking(self):
        # two up-spins, no complete pair
        from gamma2lab.fock import basis_state
        op = make_op(UNIFORM4)
        out = apply_B(op, basis_state(8, 0b0101))
        assert np.all(out.amplitudes == 0)

    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_adjointness(self, profile):
        op = make_op(PROFILES[profile](4))
        rng = np.random.default_rng(3)
        from gamma2lab.fock import SectorVector
        v = SectorVector(enumerate_sector(8, 4),
                         rng.standard_normal(70) + 1j * rng.standard_normal(70))
        w = SectorVector(enumerate_sector(8, 2),
                         rng.standard_normal(28) + 1j * rng.standard_normal(28))
        assert abs(w.inner(apply_B(op, v)) - apply_B_star(op, w).inner(v)) < 1e-12

    def test_commutator_formula_on_random_vector(self):
        op = make_op(UNIFORM4)
        rng = np.random.default_rng(8)
        from gamma2lab.fock import SectorVector
        sec = enumerate_sector(8, 4)
        v = SectorVector(sec, rng.standard_normal(sec.dim)
                         + 1j * rng.standard_normal(sec.dim))
        lhs = apply_B(op, apply_B_star(op, v)) - apply_B_star(op, apply_B(op, v))
        rhs = SectorVector(sec, (1.0 - pair_number_diagonal(op, sec)) * v.amplitudes)
        assert (lhs - rhs).norm() < 1e-12

    def test_dense_b_matches_bit_oracle(self):
        # B = sum_k lam_k c_{2k+1} c_{2k} from the dense bit-loop annihilators
        op = PairOperator.from_lambdas(np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0))
        ann = [dense_annihilator(6, i) for i in range(6)]
        full = sum(lam * ann[2 * k + 1] @ ann[2 * k]
                   for k, lam in enumerate(op.lambdas))
        for n in range(2, 7):
            src, tgt = enumerate_sector(6, n), enumerate_sector(6, n - 2)
            assert np.array_equal(dense_b_matrix(op, n),
                                  full[np.ix_(tgt.states, src.states)])

    @pytest.mark.parametrize("n", range(9))
    def test_commutator_dense(self, n):
        # every sector of K = 1..4 pairs; at (K, N) = (1, 1) neither B B* nor
        # B* B has an intermediate sector
        for K in range(max(1, (n + 1) // 2), 5):
            assert commutator_defect(make_op(PROFILES["power"](K)), n) < 1e-12

    def test_number_coupling_operator_bounds(self):
        op = make_op(PROFILES["geometric"](4))
        sec = enumerate_sector(8, 4)
        diag = pair_number_diagonal(op, sec)
        assert diag.min() >= -1e-12
        assert diag.max() <= 4 * float(np.max(op.lambdas) ** 2) + 1e-12


class TestSignsFromFermionAlgebra:
    """The sign-free pair operators against the signed fermion primitives.

    b_k = c_{2k+1} c_{2k} and b*_k = c*_{2k} c*_{2k+1}, applied through
    apply_annihilate / apply_create, which carry the Jordan-Wigner signs.
    """

    @staticmethod
    def by_fermions(op, vec, create):
        terms = []
        for k, lam in enumerate(op.lambdas):
            if create:
                terms.append(lam * apply_create(2 * k, apply_create(2 * k + 1, vec)))
            else:
                terms.append(lam * apply_annihilate(2 * k + 1,
                                                    apply_annihilate(2 * k, vec)))
        return sum(terms[1:], terms[0])

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_apply_B_and_B_star_every_sector(self, K):
        op = make_op(np.arange(1.0, K + 1))
        for n in range(2 * K + 1):
            v = random_vector(2 * K, n, 10 * K + n)
            if n >= 2:
                diff = apply_B(op, v).amplitudes - self.by_fermions(op, v, False).amplitudes
                assert np.max(np.abs(diff)) <= 1e-14
            if n + 2 <= 2 * K:
                diff = (apply_B_star(op, v).amplitudes
                        - self.by_fermions(op, v, True).amplitudes)
                assert np.max(np.abs(diff)) <= 1e-14

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_pairing_state_vector_from_fermion_creators(self, K, refuse):
        # the references still reach fock._hops through fock._scatter
        refuse(pairing, "_hops", "B* on the pair basis needs no fermion hop table")
        op = make_op(np.arange(1.0, K + 1))
        ref = vacuum_state(2 * K)
        for m in range(min(K, 3) + 1):
            built = build_pairing_state(op, m).vector
            assert np.max(np.abs(built.amplitudes - ref.amplitudes)) <= 1e-14
            if m < K:
                ref = self.by_fermions(op, ref, True)


class TestBuildPairingState:
    def test_vacuum(self):
        st0 = build_pairing_state(make_op(UNIFORM4), 0)
        assert st0.norm_sq == 1.0
        assert abs(st0.vector.amplitudes[0] - 1.0) < 1e-15

    def test_single_application_matches_embedding(self):
        from gamma2lab.canonical import canonical_from_lambdas, embed_as_sector_vector
        op = make_op(PROFILES["power"](4))
        st1 = build_pairing_state(op, 1)
        ref = embed_as_sector_vector(canonical_from_lambdas(op.lambdas))
        assert (st1.vector - ref).norm() < 1e-14
        assert abs(st1.norm_sq - 1.0) < 1e-14

    def test_uniform_norm(self):
        assert abs(build_pairing_state(make_op(UNIFORM4), 2).norm_sq - 1.5) < 1e-14

    @pytest.mark.parametrize("profile", list(PROFILES))
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_fock_space_construction(self, profile, m, refuse):
        refuse(pairing, "_hops", "B* on the pair basis needs no fermion hop table")
        op = make_op(PROFILES[profile](3))
        built = build_pairing_state(op, m)
        ref = pairing_state_by_fock_ops(op, m)
        assert (built.vector - ref).norm() < 1e-12

    def test_seniority_support(self):
        op = make_op(PROFILES["geometric"](4))
        state = build_pairing_state(op, 2)
        sec = state.vector.basis
        for idx in np.nonzero(state.vector.amplitudes)[0]:
            mask = int(sec.states[idx])
            for k in range(4):
                pair = (mask >> (2 * k)) & 0b11
                assert pair in (0b00, 0b11)

    def test_degenerate_state_flagged(self):
        op = PairOperator.from_lambdas([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
        state = build_pairing_state(op, 3)
        assert state.norm_sq == 0.0
        assert not np.any(state.pair_amplitudes)
        assert pairing_amplitudes(op.lambdas, 3) is None

    def test_sector_overflow(self):
        with pytest.raises(SectorSizeError):
            build_pairing_state(make_op(UNIFORM4), 5)


class TestClosedForm:
    """``pairing_amplitudes`` against the B* chain of ``build_pairing_state``."""

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
                    min_size=1, max_size=8).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_matches_b_star_chain(self, raw):
        op = make_op(raw)
        for m in range(op.n_pairs + 1):
            built = build_pairing_state(op, m)
            amps = pairing_amplitudes(op.lambdas, m)
            # Psi_M vanishes exactly when its support is short
            assert (amps is None) == (built.norm_sq == 0.0)
            if amps is not None:
                ref = built.pair_amplitudes / np.linalg.norm(built.pair_amplitudes)
                assert np.max(np.abs(amps / np.linalg.norm(amps) - ref)) <= 1e-12

    def test_no_false_zero(self):
        # lam_k ~ 1e-30**k: the largest entry of Psi_4 is 2.4e-179, so the
        # built norm underflows to 0; the scaled closed form does not
        lams = 1e-30 ** np.arange(8)
        op = PairOperator.from_lambdas(lams / np.linalg.norm(lams))
        assert build_pairing_state(op, 4).norm_sq == 0.0
        amps = pairing_amplitudes(op.lambdas, 4)
        assert amps.max() == 1.0 and amps[0] == 1.0  # mask 0b1111 comes first


class TestNormOracle:
    def test_normalization_sum(self):
        assert abs(norm_sq_oracle(UNIFORM4, 1) - 1.0) < 1e-15

    def test_uniform_examples(self):
        assert abs(norm_sq_oracle(UNIFORM4, 2) - 1.5) < 1e-14
        lams6 = np.full(6, 1 / np.sqrt(6))
        assert abs(norm_sq_oracle(lams6, 3) - 10.0 / 3.0) < 1e-14

    def test_beyond_support_is_zero(self):
        assert norm_sq_oracle(UNIFORM4, 5) == 0.0

    @pytest.mark.parametrize("profile", list(PROFILES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_construction_everywhere(self, profile, k):
        op = make_op(PROFILES[profile](k))
        for m in range(k + 1):
            oracle = norm_sq_oracle(op.lambdas, m)
            built = build_pairing_state(op, m).norm_sq
            assert abs(built - oracle) <= 1e-10 * max(1.0, oracle)

    @given(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
           st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_esp_recurrence_vs_bruteforce(self, raw, order):
        # (M!)^2 e_M(x) summed over every M-subset, with lam = sqrt(x)
        vals = np.asarray(raw)
        brute = math.factorial(order) ** 2 * brute_esp(list(vals), order)
        assert abs(norm_sq_oracle(np.sqrt(vals), order) - brute) < 1e-10 * max(
            1.0, brute)

    def test_overflow_is_inf(self):
        # (M!)^2 e_M for uniform:400 at M = 200 is about 2.5e348
        assert norm_sq_oracle(np.full(400, 0.05), 200) == np.inf

    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_one_scan_keeps_every_bit(self, profile):
        # the e_j row of the scan depends neither on c nor on how far it
        # runs, so the norms off one scan, and the norm beside the
        # expectation, have the bits of a scan of their own
        lams = make_op(PROFILES[profile](9)).lambdas
        x = lams ** 2
        e_row = _log_pair_sums(x, x, 9)[0]
        norms = norm_sq_oracles(lams, 9)
        for m in range(10):
            assert _log_pair_sums(x, np.zeros(9), m)[0].tobytes() == e_row[:m + 1].tobytes()
            assert norms[m] == norm_sq_oracle(lams, m)
            if m:
                assert pair_expectation_and_norm(lams, lams, m)[1] == norms[m]


# Up to 60 pairs; zero coefficients make some states vanish.
coefficients = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


class TestPairExpectation:
    @given(st.data(), st.integers(1, 60), st.sampled_from(["thm2", "head", "free"]))
    @settings(max_examples=15, deadline=None)
    def test_matches_exact_recurrence(self, data, K, shape):
        mu = data.draw(st.lists(coefficients, min_size=K, max_size=K))
        if shape == "thm2":  # the state from the operator's own coefficients
            lam = mu
        elif shape == "head":  # the counterexample: uniform on the first N
            N = data.draw(st.integers(1, K))
            lam = [1.0 / math.sqrt(N)] * N + [0.0] * (K - N)
        else:
            lam = data.draw(st.lists(coefficients, min_size=K, max_size=K))
        E, R2 = exact_pair_sums(mu, lam)
        for M in range(1, K + 1):
            if E[M] == 0:
                with pytest.raises(ValueError, match="zero vector"):
                    pair_expectation_and_norm(mu, lam, M)
                continue
            exact = 2 * R2[M - 1] / E[M]
            got = pair_expectation_and_norm(mu, lam, M)[0]
            assert abs(Fraction(got) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("K", [100, 1000])
    def test_uniform_identity(self, K):
        # Psi_M on K uniform pairs: 2 ||B Psi||^2 / ||Psi||^2 = 2M(K-M+1)/K,
        # far below where e_M(x) = C(K, M) / K^M underflows a float
        lams = np.full(K, 1.0 / np.sqrt(K))
        for M in (1, 2, K // 3, K // 2, K - 1, K):
            expected = 2.0 * M * (K - M + 1) / K
            got = pair_expectation_and_norm(lams, lams, M)[0]
            assert abs(got - expected) <= 2e-11 * expected

    def test_vacuum_and_shape(self):
        assert pair_expectation_and_norm(UNIFORM4, UNIFORM4, 0)[0] == 0.0
        with pytest.raises(SectorMismatchError):
            pair_expectation_and_norm(UNIFORM4, np.full(3, 1.0), 1)
        with pytest.raises(ValueError, match="non-negative"):
            pair_expectation_and_norm(-UNIFORM4, UNIFORM4, 1)


class TestAnnihilationIdentities:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("spin", ["up", "down"])
    def test_residuals_uniform(self, k, spin):
        res = annihilation_identity_check(make_op(UNIFORM4), 2, k, spin)
        assert res.annihilation < 1e-12
        assert res.rearranged < 1e-12

    def test_zero_coefficient_annihilates(self):
        op = PairOperator.from_lambdas([np.sqrt(0.5), np.sqrt(0.5), 0.0])
        state = build_pairing_state(op, 2)
        out = apply_annihilate(4, state.vector)
        assert np.all(out.amplitudes == 0)
        res = annihilation_identity_check(op, 2, 2, "up")
        assert res.annihilation == 0.0 and res.rearranged == 0.0

    def test_vacuum_case(self):
        res = annihilation_identity_check(make_op(UNIFORM4), 0, 1, "down")
        assert res.annihilation == 0.0
        assert res.rearranged < 1e-15

    def test_rejects_unknown_spin(self):
        with pytest.raises(ValueError):
            annihilation_identity_check(make_op(UNIFORM4), 1, 0, "sideways")


@pytest.mark.parametrize("apply", [apply_B, apply_B_star])
def test_pair_operators_refuse_a_stack(apply):
    with pytest.raises(SectorMismatchError, match="stack"):
        apply(make_op(UNIFORM4), stack(8, 4, [1, 2]))


class TestDenseHelpers:
    def test_dense_matrix_matches_matrix_free(self):
        op = make_op(PROFILES["power"](4))
        mat = dense_b_matrix(op, 4)
        src = enumerate_sector(8, 4)
        rng = np.random.default_rng(1)
        from gamma2lab.fock import SectorVector
        v = SectorVector(src, rng.standard_normal(src.dim) + 0j)
        assert np.allclose(mat @ v.amplitudes, apply_B(op, v).amplitudes,
                           atol=1e-13)
