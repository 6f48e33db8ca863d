"""Batched eigenpair sweeps (``verify thm1/occupation``) against the per-trial
composition ``spectral_decompose(compute_gamma2(random_state(...)))``, and
the memory a sweep holds."""

import json
import tracemalloc
from math import comb
from unittest import mock

import pytest

import gamma2lab.fock as fock
import gamma2lab.rdm as rdm
from gamma2lab import bounds, cli
from gamma2lab.cli import main, random_state
from gamma2lab.rdm import compute_gamma2, partial_trace_residual, spectral_decompose

VERIFY = {"thm1": bounds.verify_theorem1,
          "occupation": bounds.eigenvector_occupation_check}


def oracle_checks(check, d, n, trials, seed):
    """The checks of a sweep, one state at a time."""
    rows = []
    blocks, widest = rdm.gram_block_shape(d, n)
    for t in range(trials):
        psi = random_state(d, n, seed + t)
        sd = spectral_decompose(compute_gamma2(psi))
        tag = {"seed": seed + t, "trial": t}
        details = {"eigenvalues": sd.eigenvalues.tolist(),
                   "trace_residual": sd.operator.trace_residual,
                   "partial_trace_residual": partial_trace_residual(sd.one_body, psi),
                   "eigen_residual": sd.eigen_residual,
                   "gamma2_blocks": blocks, "gamma2_widest": widest}
        rows.append(bounds.TheoremReport(kind="spectrum", params={"d": d, "N": n, **tag},
                                         details=details))
        rows += VERIFY[check](sd, tag=tag)
    return json.loads(json.dumps([r.to_dict() for r in rows]))


def sweep(tmp_path, check, d, n, trials, seed, name="report.json"):
    out = tmp_path / name
    code = main(["verify", check, "--dim", str(d), "--particles", str(n),
                 "--trials", str(trials), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out.read_bytes()


# (d, N, GRAM_CHUNK, SWEEP_BATCH_BYTES); None keeps the module value.  At
# d = 14, N = 7 the default budget runs batches of one, so a larger one makes
# batches of blocks read several states each.
SIZES = [(6, 3, None, None), (8, 4, None, None), (9, 4, None, None),
         (12, 6, None, None), (14, 7, 64, 3_000_000)]


@pytest.mark.parametrize("check", ["thm1", "occupation"])
@pytest.mark.parametrize("d,n,chunk,budget", SIZES)
def test_batched_sweep_matches_the_per_trial_composition(tmp_path, check, d, n,
                                                         chunk, budget):
    with mock.patch.object(rdm, "GRAM_CHUNK", chunk or rdm.GRAM_CHUNK), \
            mock.patch.object(cli, "SWEEP_BATCH_BYTES", budget or cli.SWEEP_BATCH_BYTES):
        batch = cli._batch_trials(d, n)
        assert batch > 1
        if chunk:
            assert len(rdm._gram_blocks(d, n, chunk)[1]) > 1  # several groups of blocks
        for trials in sorted({1, batch, batch + 1, 2 * batch + 3}):
            seed = 1000 * d + trials
            report = sweep(tmp_path, check, d, n, trials, seed)
            checks = json.loads(report)["checks"]
            assert checks == oracle_checks(check, d, n, trials, seed)
            spectra = [c["params"] for c in checks if c["kind"] == "spectrum"]
            assert spectra == [{"d": d, "N": n, "seed": seed + t, "trial": t}
                               for t in range(trials)]
            assert sweep(tmp_path, check, d, n, trials, seed, "rerun.json") == report


def test_batches_follow_the_byte_budget():
    assert cli._batch_trials(8, 4) == 18
    assert cli._batch_trials(12, 6) == 3
    with mock.patch.object(cli, "SWEEP_BATCH_BYTES", 1):
        assert cli._batch_trials(8, 4) == 1
    # a d >= 20 trial alone is above the budget: 3 P d^2 complex entries
    # are 3.6 MB at d = 20
    for d in range(20, fock.DEFAULT_MAX_DIM + 1):
        assert all(cli._batch_trials(d, n) == 1 for n in range(2, d + 1))


def test_sweep_reads_one_assembly_per_batch(tmp_path, monkeypatch):
    shapes = []
    assemble = rdm.compute_gamma2

    def recording(psi):
        shapes.append(psi.amplitudes.shape)
        return assemble(psi)

    monkeypatch.setattr(rdm, "compute_gamma2", recording)
    sweep(tmp_path, "thm1", 8, 4, 40, 0)
    assert shapes == [(18, 70), (18, 70), (4, 70)]


def _transient_bytes(trials):
    """The tracemalloc peak of a warm d=8, N=4 sweep above what it returns."""
    warm, args = (cli.build_parser().parse_args(["verify", "thm1", "--trials", str(t)])
                  for t in (1, trials))
    warm.particles = args.particles = int(args.particles)
    cli._cmd_verify(warm)  # the sector and table caches
    tracemalloc.start()
    try:
        kept = cli._cmd_verify(args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept[1]) == 29 * trials
    return peak - current


def test_sweep_memory_does_not_grow_with_trials():
    small, large = _transient_bytes(100), _transient_bytes(1000)
    # one batch's arrays, not the sweep's; the list of 29000 rows may be
    # reallocated once more at 1000 trials (0.2 MB of pointers)
    assert small < cli.SWEEP_BATCH_BYTES + 1_000_000
    assert large < small + 500_000


def test_sector_large_sweep_runs_batches_of_one(tmp_path, monkeypatch):
    seen = []
    assemble = rdm.compute_gamma2

    def measured(psi):
        for cache in (rdm._low_hops, rdm._gram_blocks, fock.occupation_masks):
            cache.cache_clear()
        tracemalloc.start()
        try:
            g = assemble(psi)
            seen.append((psi.amplitudes.shape, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return g

    monkeypatch.setattr(rdm, "compute_gamma2", measured)
    sweep(tmp_path, "thm1", 20, 10, 2, 0)
    assert [shape for shape, _ in seen] == [(1, comb(20, 10))] * 2
    # the bound of test_assembly_memory_at_the_sector_large_size
    assert all(peak < 9_000_000 for _, peak in seen)
