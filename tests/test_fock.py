"""Sector enumeration, operator signs, and the anticommutation relations."""

import importlib
import itertools
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamma2lab
from gamma2lab import fock, pairing, rdm
from gamma2lab.fock import (SectorMismatchError, SectorSizeError,
                            SectorVector, apply_annihilate,
                            apply_annihilate_vector, apply_create,
                            basis_state, enumerate_sector, occupations,
                            slater_state)


def dense_annihilator(d, i):
    """Independent bit-loop construction of c_i on the full 2**d space."""
    dim = 1 << d
    m = np.zeros((dim, dim))
    for mask in range(dim):
        if mask & (1 << i):
            sign = (-1) ** bin(mask & ((1 << i) - 1)).count("1")
            m[mask ^ (1 << i), mask] = sign
    return m


def operator_matrix(op, src, tgt):
    """Dense matrix of a sector-vector map, built column by column."""
    mat = np.zeros((tgt.dim, src.dim), dtype=np.complex128)
    for j in range(src.dim):
        e = np.zeros(src.dim, dtype=np.complex128)
        e[j] = 1.0
        mat[:, j] = op(SectorVector(src, e)).amplitudes
    return mat


def gosper_masks(d, n):
    """Independent oracle: every popcount-n mask below 1 << d, ascending,
    stepping from each to the next larger one (Gosper's hack)."""
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    out = []
    m = (1 << n) - 1
    while m < 1 << d:
        out.append(m)
        c = m & (-m)
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return np.asarray(out, dtype=np.int64)


def random_vector(d, n, seed):
    sec = enumerate_sector(d, n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(sec.dim) + 1j * rng.standard_normal(sec.dim)
    return SectorVector(sec, z / np.linalg.norm(z))


class TestEnumeration:
    def test_full_shell(self):
        sec = enumerate_sector(2, 2)
        assert list(sec.states) == [0b11]

    def test_four_choose_two(self):
        sec = enumerate_sector(4, 2)
        assert list(sec.states) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]

    def test_size_matches_direct_enumeration(self):
        # brute-force oracle: count subsets directly
        expected = sum(1 for c in itertools.combinations(range(8), 4))
        assert enumerate_sector(8, 4).dim == expected == 70

    @pytest.mark.parametrize("d,n", [(4, -1), (4, 5), (30, 2)])
    def test_rejects_bad_sectors(self, d, n):
        with pytest.raises(SectorSizeError):
            enumerate_sector(d, n)

    def test_ordering_is_stable(self):
        a = enumerate_sector(6, 3).states
        b = enumerate_sector(6, 3).states
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_masks_match_gosper(self):
        for d in range(17):
            for n in range(d + 1):
                ref = gosper_masks(d, n)
                assert len(ref) == math.comb(d, n) and np.all(np.diff(ref) > 0)
                assert np.all(np.bitwise_count(ref) == n) and np.all(ref < 1 << d)
                masks = fock.occupation_masks(d, n)
                assert masks.dtype == np.int64
                assert np.array_equal(masks, ref), (d, n)

    def test_index_of_rejects_foreign_masks(self):
        sec = enumerate_sector(4, 2)
        with pytest.raises(SectorMismatchError):
            sec.index_of([0b0111])


class TestCreationAnnihilation:
    def test_vacuum_excitation(self):
        out = apply_create(0, basis_state(2, 0))
        assert out.basis.N == 1
        assert out.amplitudes[out.basis.index_of([0b01])[0]] == 1.0

    def test_single_swap_sign(self):
        # creating orbital 1 on |0b01> passes one occupied orbital
        out = apply_create(1, basis_state(2, 0b01))
        assert out.amplitudes[out.basis.index_of([0b11])[0]] == -1.0

    def test_double_creation_is_zero(self):
        once = apply_create(0, basis_state(4, 0))
        twice = apply_create(0, once)
        assert np.all(twice.amplitudes == 0)

    def test_annihilate_inverts_vacuum_excitation(self):
        out = apply_annihilate(0, basis_state(2, 0b01))
        assert out.amplitudes[0] == 1.0

    def test_annihilate_unoccupied_is_zero(self):
        out = apply_annihilate(1, basis_state(2, 0b01))
        assert np.all(out.amplitudes == 0)

    def test_number_convention(self):
        # c_1 c*_1 |0b01> = |0b01>: the two Jordan-Wigner signs cancel
        v = basis_state(2, 0b01)
        roundtrip = apply_annihilate(1, apply_create(1, v))
        assert np.allclose(roundtrip.amplitudes, v.amplitudes)

    def test_out_of_range_orbital(self):
        with pytest.raises(SectorMismatchError):
            apply_create(5, basis_state(4, 0))

    def test_full_sector_rejects_creation(self):
        with pytest.raises(SectorMismatchError):
            apply_create(0, basis_state(2, 0b11))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_matches_dense_bit_oracle(self, d):
        # compare sector-wise application against the independent dense build;
        # every matrix entry comes from one orbital, so agreement is exact
        rng = np.random.default_rng(d)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ann = [dense_annihilator(d, i) for i in range(d)]
        ann_u = sum(np.conj(u[i]) * ann[i] for i in range(d))
        for n in range(1, d + 1):
            src = enumerate_sector(d, n)
            tgt = enumerate_sector(d, n - 1)

            def block(full):
                return full[np.ix_(tgt.states, src.states)]

            for i in range(d):
                ours = operator_matrix(lambda w: apply_annihilate(i, w), src, tgt)
                assert np.max(np.abs(block(ann[i]) - ours)) == 0.0
                ours = operator_matrix(lambda w: apply_create(i, w), tgt, src)
                assert np.max(np.abs(block(ann[i]).T - ours)) == 0.0
            ours = operator_matrix(lambda w: apply_annihilate_vector(u, w), src, tgt)
            assert np.max(np.abs(block(ann_u) - ours)) == 0.0


class TestCAR:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_anticommutators_dense(self, d):
        dim = 1 << d
        ann = [dense_annihilator(d, i) for i in range(d)]
        for i in range(d):
            for j in range(d):
                acc = ann[i] @ ann[j] + ann[j] @ ann[i]
                assert np.max(np.abs(acc)) < 1e-12
                mixed = ann[i] @ ann[j].T + ann[j].T @ ann[i]
                target = np.eye(dim) if i == j else np.zeros((dim, dim))
                assert np.max(np.abs(mixed - target)) < 1e-12

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_adjointness(self, i, j, seed):
        d, n = 6, 3
        v = random_vector(d, n, seed)
        w = random_vector(d, n - 1, seed + 1)
        lhs = w.inner(apply_annihilate(i, v))
        rhs = apply_create(i, w).inner(v)
        assert abs(lhs - rhs) < 1e-12

    def test_sector_preservation(self):
        v = random_vector(6, 3, 11)
        out = apply_create(2, apply_annihilate(4, v))
        assert out.basis.N == 3


class TestNumberOperator:
    def test_slater_occupations(self):
        psi = slater_state(6, [0, 2, 5])
        for i in range(6):
            expected = 1.0 if i in (0, 2, 5) else 0.0
            assert occupations(psi)[i] == expected

    def test_occupations_sum_to_particle_number(self):
        v = random_vector(8, 4, 3)
        total = sum(occupations(v)[i] for i in range(8))
        assert abs(total - 4.0) < 1e-12

    @pytest.mark.parametrize("d, n", [(1, 1), (7, 3), (10, 5), (12, 11)])
    def test_occupations_match_per_orbital_masks(self, d, n):
        # 2**(d // 2) states per slice: several slices, the last one short
        v = random_vector(d, n, 7) * 3.0
        weight = np.abs(v.amplitudes) ** 2
        ref = [weight[(v.basis.states >> i) & 1 == 1].sum() / weight.sum()
               for i in range(d)]
        assert np.allclose(occupations(v), ref, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("d, n", [(1, 1), (7, 3), (10, 5), (12, 11), (16, 8)])
    def test_stack_occupations_are_the_single_ones(self, d, n):
        vecs = [random_vector(d, n, seed) * (1.0 + seed) for seed in range(5)]
        stack = SectorVector(vecs[0].basis, np.stack([v.amplitudes for v in vecs]))
        assert np.array_equal(stack.norm_sq(), [v.norm_sq() for v in vecs])
        got = occupations(stack)
        assert got.shape == (5, d)
        for row, v in zip(got, vecs):
            assert row.tobytes() == occupations(v).tobytes()

    def test_stack_with_a_zero_vector_rejected(self):
        v = random_vector(6, 3, 1)
        stack = SectorVector(v.basis, np.stack([v.amplitudes, 0 * v.amplitudes]))
        with pytest.raises(ValueError, match="zero vector"):
            occupations(stack)

    @pytest.mark.parametrize("shape", [(2, 2, 6), (5,), (2, 7), ()])
    def test_amplitude_shape_must_end_in_the_sector_dim(self, shape):
        with pytest.raises(SectorMismatchError):
            SectorVector(enumerate_sector(4, 2), np.zeros(shape))


class TestVectorOperators:
    def test_annihilate_vector_is_conjugate_linear(self):
        v = random_vector(6, 3, 9)
        coeffs = np.zeros(6, dtype=complex)
        coeffs[1] = 2j
        out = apply_annihilate_vector(coeffs, v)
        ref = apply_annihilate(1, v)
        assert np.allclose(out.amplitudes, -2j * ref.amplitudes, atol=1e-15)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_vector_adjointness(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = random_vector(6, 3, seed)
        w = random_vector(6, 2, seed + 7)
        # the adjoint of sum_i conj(u_i) c_i is sum_i u_i c*_i
        lhs = w.inner(apply_annihilate_vector(u, v))
        rhs = sum(np.conj(u[i]) * apply_create(i, w).inner(v) for i in range(6))
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("apply", [apply_annihilate_vector])
    def test_non_finite_coefficients_refused(self, apply, bad):
        # a NaN used to be dropped as if zero, an inf to write NaN amplitudes
        with pytest.raises(ValueError, match="finite"):
            apply([bad, 0, 0, 0], random_vector(4, 2, 0))


def stack(d, n, seeds):
    """A (B, dim) stack of the random vectors of ``seeds``."""
    vecs = [random_vector(d, n, seed) for seed in seeds]
    return SectorVector(vecs[0].basis, np.stack([v.amplitudes for v in vecs]))


class TestSingleVectorOperations:
    """Only norm_sq, occupations and compute_gamma2 read a stack; every
    other operation refuses one instead of mixing its vectors."""

    def test_norm_refuses_a_stack(self):
        with pytest.raises(SectorMismatchError, match="stack"):
            stack(6, 3, [1, 2]).norm()

    def test_normalized_refuses_a_stack(self):
        with pytest.raises(SectorMismatchError, match="stack"):
            stack(6, 3, [1, 2]).normalized()

    @pytest.mark.parametrize("stacked_left", [True, False])
    def test_inner_refuses_a_stack(self, stacked_left):
        pair = stack(6, 3, [1, 2]), random_vector(6, 3, 3)
        left, right = pair if stacked_left else pair[::-1]
        with pytest.raises(SectorMismatchError, match="stack"):
            left.inner(right)

    @pytest.mark.parametrize("apply", [
        lambda v: apply_create(0, v), lambda v: apply_annihilate(0, v),
        lambda v: apply_annihilate_vector(np.ones(6), v),
        lambda v: fock._scatter(v, [(0b11, 1.0)], 2, create=False),
        lambda v: fock._scatter(v, [(0b11, 1.0)], 2, create=True)],
        ids=["create", "annihilate", "annihilate_vector",
             "pair_annihilate", "pair_create"])
    def test_operators_refuse_a_stack(self, apply):
        with pytest.raises(SectorMismatchError, match="stack"):
            apply(stack(6, 3, [1, 2]))


class TestPairRows:
    """The k = 2 rows of the applier against products of single
    annihilators, so the pair annihilator of rdm and the Gamma2 assembly do
    not rest on the pair sign rule alone."""

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pair_rows_are_two_single_annihilators(self, d, data):
        n = data.draw(st.integers(2, d))
        seed = data.draw(st.integers(0, 2 ** 31))
        v, w = random_vector(d, n, seed), random_vector(d, n - 2, seed + 1)
        for i, j in itertools.combinations(range(d), 2):
            row = (1 << i) | (1 << j)
            down = fock._scatter(v, [(row, 1.0)], 2, create=False)
            assert np.array_equal(down.amplitudes,
                                  apply_annihilate(j, apply_annihilate(i, v)).amplitudes)
            up = fock._scatter(w, [(row, 1.0)], 2, create=True)
            assert abs(w.inner(down) - up.inner(v)) < 1e-12

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_pair_operator_is_its_single_annihilators(self, K, data):
        d = 2 * K
        n = data.draw(st.integers(2, d))
        seed = data.draw(st.integers(0, 2 ** 31))
        rng = np.random.default_rng(seed)
        lams = rng.random(K) * (rng.random(K) < 0.8)  # some pairs absent
        lams[0] += 0.1
        op = pairing.PairOperator(lams / np.linalg.norm(lams))
        v = random_vector(d, n, seed)
        oracle = sum(lam * apply_annihilate(2 * k + 1, apply_annihilate(2 * k, v)).amplitudes
                     for k, lam in enumerate(op.lambdas))
        np.testing.assert_allclose(pairing.apply_B(op, v).amplitudes, oracle,
                                   rtol=0, atol=1e-15)


def bit_string_hops(d, n, rows):
    """The hop table of ``fock._hops`` from bit strings alone: for each row
    mask in turn and each d-bit string s with n ones holding its bits, in
    ascending order, clear the row's orbitals lowest first, each with the
    sign (-1)**(occupied orbitals below it).  One tuple
    (row, cleared position, position of s, sign) per entry."""
    strings = {m: [s for s in range(1 << d) if bin(s).count("1") == m]
               for m in range(n - 2, n + 1)}
    table = []
    for r, bits in enumerate(rows):
        orbitals = [o for o in range(d) if bits >> o & 1]
        for pos, s in enumerate(strings[n]):
            if s & bits != bits:
                continue
            sign, t = 1, s
            for o in orbitals:
                sign *= (-1) ** bin(t & ((1 << o) - 1)).count("1")
                t ^= 1 << o
            table.append((r, strings[n - len(orbitals)].index(t), pos, sign))
    return table


def hop_entries(d, n, rows):
    return list(zip(*(part.tolist() for part in
                      fock._hops(d, n, np.array(rows, dtype=np.int64)))))


class TestHopTable:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_single_orbitals_match_bit_strings(self, d):
        singles = [1 << o for o in range(d)]
        for n in range(d + 1):
            assert hop_entries(d, n, singles) == bit_string_hops(d, n, singles)
            for bits in singles:
                assert hop_entries(d, n, [bits]) == bit_string_hops(d, n, [bits])

    @pytest.mark.parametrize("d", range(2, 9))
    def test_pairs_match_bit_strings(self, d):
        pairs = [1 << i | 1 << j for i, j in itertools.combinations(range(d), 2)]
        for n in range(d + 1):
            assert hop_entries(d, n, pairs) == bit_string_hops(d, n, pairs)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_spin_pairs_carry_no_sign(self, d):
        for n in range(d + 1):
            for k in range(d // 2):
                entries = hop_entries(d, n, [3 << 2 * k])
                assert entries == bit_string_hops(d, n, [3 << 2 * k])
                assert all(sign == 1.0 for *_, sign in entries)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_gamma2_blocks_match_bit_strings(self, d):
        for n in range(d + 1):
            for k in (0, 1, 2):
                rows = [m for m in range(1 << d) if bin(m).count("1") == k]
                width = math.comb(d, max(n - k, 0))
                expected = [(r * width + cleared, pos, sign)
                            for r, cleared, pos, sign in bit_string_hops(d, n, rows)]
                dst, src, signs = rdm._low_hops(d, n, k)
                assert list(zip(dst.tolist(), src.tolist(), signs.tolist())) == expected


class TestCaches:
    def test_every_cache_is_bounded(self):
        caches = {}
        for info in pkgutil.iter_modules(gamma2lab.__path__):
            module = importlib.import_module(f"gamma2lab.{info.name}")
            caches.update({f"{info.name}.{name}": f
                           for name, f in vars(module).items()
                           if hasattr(f, "cache_info")})
        assert {"fock.occupation_masks", "rdm._low_hops",
                "pairing._pair_moves"} <= set(caches)
        for name, f in caches.items():
            assert f.cache_info().maxsize is not None, name


@pytest.mark.parametrize("apply,bound_mib", [
    (lambda psi: apply_annihilate_vector(np.ones(20), psi), 10.5),
    (lambda psi: pairing.apply_B(pairing.PairOperator(np.full(10, 10 ** -0.5)), psi), 5.8),
], ids=["annihilate_vector", "apply_B"])
def test_applier_drops_each_term_table(apply, bound_mib):
    # psi is 2.8 MiB; holding one term's table while the next is built costs
    # about 2 MiB more for 20 single terms and 1 MiB for 10 pair terms
    psi = random_vector(20, 10, 0)
    apply(psi)  # warm the mask cache
    tracemalloc.start()
    try:
        apply(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2 ** 20
