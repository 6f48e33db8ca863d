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
non-finite float rather than write ``NaN`` or ``Infinity``.  The eigenpair
rows of a sweep batch are the exception: they stay the arrays of one
:class:`bounds.EigenpairRows` until written.  Each writer writes them from
one row template per batch, cut from its library's own text of a row, and
everything else with that library, so the bytes are those of
``json.dumps``, or of ``csv.writer``, over the expanded report.

Reports are deterministic: identical single-threaded runs write
byte-identical files.  Wall-clock timing therefore goes to stderr and is
only embedded in the report when ``--timing`` is given.  The random-state
generator is counter-based (Philox, 4x64) and keyed by the seed alone, so
states are reproducible across platforms; a seed outside [0, 2**64) is a
usage error.

``verify thm1/occupation`` run their trials in batches of as many as fit
``SWEEP_BATCH_BYTES`` (one from d = 14 on): a batch is one stack of states,
one assembly, one stacked eigensolve and one call of the eigenpair check,
and its rows are written in trial order.  Every state of a batch gets the
same bits as alone, so the report does not depend on the batch size.  A
sweep whose report could hold more than ``SWEEP_MAX_ROWS`` rows' bytes (a
trial writes at most 1 + d(d-1)/2 rows, and each dump flag adds its P x P
complex entries) is refused before its first state is drawn.  ``verify
thm2`` scans the pairs in log form, and a run whose scans would take more
than ``LOG_SCAN_STEPS`` pair steps is refused before the first
(:func:`admit_log_scans`); ``verify norms`` scans no more pairs than the
pair masks of its pairing states hold (``pairing.MAX_PAIRS``), which are
admitted first.  A report is renamed into place once written
(:func:`write_report`), so no run leaves part of one.

A process pays the command line's fixed costs once, and only for the
command it runs, and starts no other process.  :data:`COMMANDS`, the
command table, holds each command's help text, argument declarations and
handler; :func:`main` builds the parser of its command on the first call
for it and reuses it, a parser that names every command but declares the
arguments of that one alone (:func:`build_parser`).  ``meta.environment``
is read without ``platform.platform()``'s ``uname -p`` subprocess on Linux
(see :func:`build_report`).  Importing
this module imports no scipy, which the command line does not need:
``meta.scipy`` is read from scipy's ``version.py``, or is None where scipy
is not installed (see :data:`SCIPY_VERSION`).  The import ends with
``gc.freeze()``, so :func:`main` starts from the same collector state
whatever the imports allocated.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import io
import json
import locale  # noqa: F401  else argparse's gettext imports it in the first main()
import os
import platform
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from pathlib import Path

import numpy as np

from . import __version__, bounds, canonical, pairing, rdm
from .fock import SectorSizeError, SectorVector, enumerate_sector

SCHEMA_VERSION = 1
RNG_NAME = "philox4x64"
OUTDIR_ENV = "GAMMA2LAB_OUTDIR"
SWEEP_BATCH_BYTES = 1 << 21  # a sweep's working set per batch of trials
SWEEP_ROW_BYTES = 1700       # one report row at its largest, expanded with its text
SWEEP_MAX_ROWS = 1_000_000   # one sweep's budget, in rows of SWEEP_ROW_BYTES: 1.7 GB
DUMP_FLOAT_BYTES = 100       # one dumped float: object, list slot and JSON text
MAX_PROFILE_PAIRS = 1_000_000  # one log-form scan of ~10 us per pair: ~10 s
LOG_SCAN_STEPS = 10_000_000    # K (M + 1) summed over one run's log-form scans: ~15 s


def _scipy_version() -> str | None:
    """``scipy.__version__`` without importing scipy, or None when scipy is
    not installed.

    ``scipy/__init__.py`` binds ``__version__`` to ``version`` of its
    ``version.py``; ``find_spec`` locates the package without running its
    ``__init__``, and this runs ``version.py`` alone.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    path = Path(spec.origin).with_name("version.py")
    scope: dict = {}
    exec(compile(path.read_bytes(), str(path), "exec"), scope)
    return scope["version"]


SCIPY_VERSION = _scipy_version()  # meta.scipy of every report


@dataclass
class LambdaSpec:
    """Parsed coefficient profile: kind, canonical text, resolved values.

    ``label`` is ``uniform:K``, ``geometric:R:K``, ``power:P:K`` (R and P
    as Python prints the parsed floats) or ``explicit-file:PATH``.  A
    parametric profile's text ends in its K: with that field replaced,
    :func:`parse_lambda_spec` reads the same profile at another K.
    """

    kind: str
    label: str
    values: np.ndarray

    @property
    def config(self) -> dict:
        """The profile as a report's ``config`` records it."""
        return {"spec": self.label, "values": self.values.tolist()}


def _resolve(raw: np.ndarray) -> np.ndarray:
    if np.any(raw < 0):
        raise ValueError("coefficients must be non-negative")
    if not np.all(np.isfinite(raw)):
        raise ValueError("coefficients and their norm must be finite")
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(raw))
    if not 0.0 < nrm < np.inf and raw.max() > 0:  # the 2-norm under- or overflows
        raw = raw / raw.max()
        nrm = float(np.linalg.norm(raw))
    if nrm == 0.0:
        raise ValueError("coefficient profile is identically zero")
    vals = np.sort(raw / nrm)[::-1].copy()
    nrm2 = float(np.sum(vals ** 2))
    if abs(nrm2 - 1.0) > 1e-14:
        vals = vals / np.sqrt(nrm2)
    return vals + 0.0  # a -0 entry becomes +0; no other bit changes


def _profile_length(k: int, what: str) -> int:
    """``k`` pairs of a ``what`` profile, at least 1 and at most
    ``MAX_PROFILE_PAIRS`` (else :class:`SectorSizeError`)."""
    if k < 1:
        raise ValueError(f"{what} profile needs K >= 1")
    if k > MAX_PROFILE_PAIRS:
        raise SectorSizeError(f"{what} profile of {k} pairs, cap is {MAX_PROFILE_PAIRS}")
    return k


def parse_lambda_spec(text: str) -> LambdaSpec:
    """Parse ``uniform:K``, ``geometric:R:K``, ``power:P:K`` or ``file:PATH``.

    A profile of more than ``MAX_PROFILE_PAIRS`` pairs raises
    :class:`SectorSizeError`, a parametric one before anything is allocated
    and a file once read.
    """
    head, _, rest = text.partition(":")
    if head == "uniform":
        k = _profile_length(int(rest), "uniform")
        return LambdaSpec("uniform", f"uniform:{k}", _resolve(np.ones(k)))
    if head == "geometric":
        ratio_s, _, k_s = rest.partition(":")
        ratio, k = float(ratio_s), _profile_length(int(k_s), "geometric")
        if ratio <= 0:
            raise ValueError("geometric profile needs R > 0")
        raw = ratio ** np.arange(1, k + 1)
        return LambdaSpec("geometric", f"geometric:{ratio}:{k}", _resolve(raw))
    if head == "power":
        p_s, _, k_s = rest.partition(":")
        p, k = float(p_s), _profile_length(int(k_s), "power")
        raw = np.arange(1, k + 1, dtype=np.float64) ** (-p)
        return LambdaSpec("power", f"power:{p}:{k}", _resolve(raw))
    if head == "file":
        path = Path(rest)
        rows = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
        raw = np.array([float(r) for r in rows if r and not r.startswith("#")])
        if raw.size < 1:
            raise ValueError(f"no coefficients found in {path}")
        _profile_length(raw.size, "file")
        return LambdaSpec("explicit-file", f"explicit-file:{path}", _resolve(raw))
    raise ValueError(f"unknown coefficient profile {text!r}")


def admit_log_scans(k: int, ms: list[int]) -> None:
    """Refuse by arithmetic the log-form scans of one run, one over ``k``
    pairs up to each M of ``ms`` (:func:`pairing._log_pair_sums`), whose
    k (M + 1) pair steps sum to more than ``LOG_SCAN_STEPS``
    (:class:`SectorSizeError`)."""
    steps = sum(k * (m + 1) for m in ms)
    if steps > LOG_SCAN_STEPS:
        raise SectorSizeError(f"log-form scans over {k} pairs up to M = {max(ms)} "
                              f"take {steps} pair steps, cap is {LOG_SCAN_STEPS}")


def random_state(d: int, N: int, seed) -> SectorVector:
    """Normalized random sector vector, deterministic per (d, N, seed), or a
    stack (B, dim) of them for a sequence of B seeds.

    Amplitudes are i.i.d. complex standard normal from a counter-based
    Philox stream keyed by the seed: the real parts, then the imaginary
    parts.  They are filled into one complex array, a row per seed, and each
    row is normalized in place, so the peak is that array plus one real
    part, and a state of a stack has the same bits as drawn alone.
    """
    sec = enumerate_sector(d, N)
    seeds = list(seed) if np.ndim(seed) else [seed]
    z = np.empty((len(seeds), sec.dim), dtype=np.complex128)
    for row, key in zip(z, seeds):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(key)))
        row.real = rng.standard_normal(sec.dim)
        row.imag = rng.standard_normal(sec.dim)
        row /= np.linalg.norm(row)
    return SectorVector(sec, z if np.ndim(seed) else z[0])


def _batch_trials(d: int, N: int) -> int:
    """Trials a (d, N) sweep runs as one batch: as many as fit
    ``SWEEP_BATCH_BYTES``, and at least one.  A trial holds its state
    (C(d, N) amplitudes), its operator and eigenvectors (P x P each, P =
    d(d-1)/2) and about three stacks of its P coefficient matrices (the
    matrices, the kept ones and their SVD factors, d x d each), all complex.
    """
    n_pairs = d * (d - 1) // 2
    trial = 16 * (comb(d, N) + 2 * n_pairs ** 2 + 3 * n_pairs * d * d)
    return max(1, SWEEP_BATCH_BYTES // trial)


def admit_sweep(d: int, trials: int, dumps: int = 0) -> None:
    """Refuse by arithmetic a sweep whose report could hold more bytes than
    ``SWEEP_MAX_ROWS`` rows of ``SWEEP_ROW_BYTES``, about 1.7 GB.

    A trial writes its spectrum row and at most one row per eigenpair,
    1 + P rows in all, P = d(d-1)/2.  Each of the ``dumps`` flags
    (``--eigenvectors``, ``--dump-operator``) adds P x P complex entries to
    the spectrum row, 2 P^2 floats of ``DUMP_FLOAT_BYTES`` each.  The rows
    stay in memory until the report is written.  An eigenpair row is held
    as a few array entries until then, and as its text, twice, while
    either writer writes it; ``SWEEP_ROW_BYTES`` bounds that, and a row
    expanded into a report and a dict next to its text as well.  So the
    budget bounds that memory; the refusal counts the dumps in rows' worth
    of bytes.
    """
    n_pairs = d * (d - 1) // 2
    rows = trials * (1 + n_pairs)
    dumped = trials * dumps * 2 * n_pairs ** 2 * DUMP_FLOAT_BYTES
    if rows * SWEEP_ROW_BYTES + dumped > SWEEP_MAX_ROWS * SWEEP_ROW_BYTES:
        worth = -(-dumped // SWEEP_ROW_BYTES)  # the dumps in rows, rounded up
        extra = f" and dumps worth {worth} rows more" if dumps else ""
        raise SectorSizeError(f"--trials {trials} at d={d} may write {rows} "
                              f"report rows{extra}, cap is {SWEEP_MAX_ROWS}")


# --- report plumbing --------------------------------------------------------

# platform.platform()'s cleanup of characters unfit for a file name
_CLEANUP = str.maketrans({" ": "_", "/": "-", "\\": "-", ":": "-", ";": "-",
                          '"': "-", "(": "-", ")": "-"})


def _environment() -> str:
    """The string ``platform.platform()`` gives, with no subprocess on Linux.

    There ``platform.platform()`` joins system, release, machine and
    processor of ``platform.uname()`` with ``with`` and the C library
    version, and its processor lookup runs ``uname -p``.  This joins the
    same fields without the processor, which ``platform.platform()`` drops
    anyway when it is blank, ``unknown`` or the machine name.
    ``platform.uname()`` reads ``os.uname()``, ``platform.libc_ver()`` reads
    ``os.confstr``, and the joined text gets ``platform.platform()``'s
    cleanup.  Other systems call ``platform.platform()`` itself.
    """
    uname = platform.uname()
    if uname.system != "Linux":
        return platform.platform()
    libc, version = platform.libc_ver()
    fields = (uname.system, uname.release, uname.machine, "with", libc + version)
    text = "-".join(f.strip() for f in fields if f).translate(_CLEANUP)
    text = re.sub("-{2,}", "-", text.replace("unknown", ""))
    return text.rstrip("-")


def build_report(config: dict, checks: list, timing: float | None) -> dict:
    """The report of one run: ``meta`` names the package, its random
    generator and the numpy, scipy and Python versions, and
    ``environment`` the system as ``platform.platform()`` names it (read by
    :func:`_environment`, which starts no process).  The scipy version is
    :data:`SCIPY_VERSION`, read at import from scipy's ``version.py``
    without importing scipy, and None where scipy is not installed.
    ``config`` is stored as given, each check as its ``to_dict()``, except
    that a :class:`bounds.EigenpairRows` stays as it is for the writers.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "artifact": "gamma2lab",
            "version": __version__,
            "rng": RNG_NAME,
            "numpy": np.__version__,
            "scipy": SCIPY_VERSION,
            "python": platform.python_version(),
            "environment": _environment(),
        },
        "config": config,
        "checks": [c if isinstance(c, bounds.EigenpairRows) else c.to_dict()
                   for c in checks],
        "timing": None if timing is None else {"elapsed_s": timing},
    }


def report_to_json(report: dict) -> str:
    """One line of JSON with sorted keys, the text of ``json.dumps(report,
    sort_keys=True, allow_nan=False)`` with every :class:`bounds.EigenpairRows`
    expanded into its rows' ``to_dict()``.  ``json`` writes every value but
    the eigenpair rows, which :func:`_batch_texts` writes from one template
    per batch.  A NaN or infinite float raises ValueError: neither is JSON.
    """
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    batches: dict[int, list[str]] = {}  # the slices of a batch share its arrays
    checks = []
    for c in report["checks"]:
        if isinstance(c, bounds.EigenpairRows):
            texts = batches.get(id(c.members))
            if texts is None:
                texts = batches[id(c.members)] = _batch_texts(c, encode)
            checks += map(texts.__getitem__, c.span)
        else:
            checks.append(encode(c))
    fields = [f"{encode(k)}: " + (f"[{', '.join(checks)}]" if k == "checks" else encode(v))
              for k, v in sorted(report.items())]
    return "{" + ", ".join(fields) + "}\n"


def _batch_texts(rows: bounds.EigenpairRows, encode) -> list[str]:
    """The JSON text of every row of the batch of ``rows``, in batch order.

    The template is ``encode`` of one row whose values that vary are
    marker strings, so key order, separators and escapes are ``json``'s;
    it is cut at the markers and filled per row.  The params of each state
    are encoded once, cut at their eigen index.  Floats are written by
    ``float.__repr__`` and ints by ``int.__repr__``, as ``json`` writes
    them; a non-finite float anywhere in the batch raises ValueError.
    """
    mark = encode("\0eigen_index")
    halves = [encode(rows.params(m, "\0eigen_index")).split(mark)
              for m in range(len(rows.tags))]
    params = [pre + idx + post for (pre, post), idx in
              zip(map(halves.__getitem__, rows.members.tolist()), _json_texts(rows.keep))]
    # in the order of the report's fields: params, observed, bound, margin,
    # pass, then the details
    columns = [params, *map(_json_texts, (rows.observed, rows.bound, rows.margin,
                                          rows.margin >= -rows.tol)),
               *map(_json_texts, rows.details.values())]
    markers = [f"\0{i}" for i in range(len(columns))]
    skeleton = bounds.TheoremReport(rows.kind, *markers[:5], dict(zip(rows.details, markers[5:])))
    template = encode(skeleton.to_dict()).replace("%", "%%")
    holes = [encode(m) for m in markers]
    order = sorted(range(len(columns)), key=lambda i: template.index(holes[i]))
    for hole in holes:
        template = template.replace(hole, "%s")
    return list(map(template.__mod__, zip(*map(columns.__getitem__, order))))


def _json_texts(column: np.ndarray) -> list[str]:
    """Each entry of a column as ``json`` writes it: a bool as true or
    false, an int by ``int.__repr__``, a float by ``float.__repr__``, which
    must be finite (else ValueError, as ``json`` raises)."""
    values = column.tolist()
    if column.dtype == bool:
        return list(map(("false", "true").__getitem__, values))
    if column.dtype.kind == "f":
        if not np.isfinite(column).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return list(map(float.__repr__, values))
    return list(map(int.__repr__, values))


def report_to_csv(report: dict) -> str:
    """A header row, then one row per check, each
    :class:`bounds.EigenpairRows` giving one per eigenpair row: the text of
    ``csv.writer`` over the checks with every eigenpair row expanded into
    its ``to_dict()``.  The header names, in sorted order, the params and
    details some row holds.  ``csv`` writes every row but the eigenpair
    rows, which :func:`_csv_batch_lines` writes from one template per state
    of their batch."""
    checks = report["checks"]
    param_keys, detail_keys = set(), set()
    for c in checks:
        if isinstance(c, bounds.EigenpairRows):
            if len(c):
                states = c.members[np.arange(c.span.start, c.span.stop, c.span.step)]
                for m in set(states.tolist()):
                    param_keys.update(c.params(m, None))
                detail_keys.update(c.details)
        else:
            param_keys.update(c.get("params", {}))
            detail_keys.update(c.get("details", {}))
    param_keys, detail_keys = sorted(param_keys), sorted(detail_keys)
    lines = [_csv_line(["kind"] + [f"param:{k}" for k in param_keys]
                       + ["observed", "bound", "margin", "pass"]
                       + [f"detail:{k}" for k in detail_keys] + ["note"])]
    batches: dict[int, list[str]] = {}  # the slices of a batch share its arrays
    for c in checks:
        if isinstance(c, bounds.EigenpairRows):
            if not len(c):  # no row, and perhaps no key of the header
                continue
            texts = batches.get(id(c.members))
            if texts is None:
                texts = batches[id(c.members)] = _csv_batch_lines(c, param_keys,
                                                                  detail_keys)
            lines += map(texts.__getitem__, c.span)
        else:
            lines.append(_csv_line(
                [c["kind"], *(_cell(c.get("params", {}).get(k)) for k in param_keys),
                 *(_cell(c.get(k)) for k in ("observed", "bound", "margin", "pass")),
                 *(_cell(c.get("details", {}).get(k)) for k in detail_keys),
                 c.get("note", "")]))
    return "".join(lines)


def _csv_batch_lines(rows: bounds.EigenpairRows, param_keys: list[str],
                     detail_keys: list[str]) -> list[str]:
    """The CSV line of every row of the batch of ``rows``, in batch order,
    under the header of ``param_keys`` and ``detail_keys``.

    Each state's template is ``csv``'s line of its rows with U+E000, a
    private-use character that ``csv`` writes as it is, for each cell that
    varies by row, so quoting is ``csv``'s; it is cut there and filled per
    row.  (Not a NUL, which ``csv`` refuses to write before Python 3.11.)
    Those cells are numbers, which ``csv`` never quotes and writes by
    ``repr``: ints, finite or non-finite floats, and pass as True or
    False.  No string of the batch may hold U+E000.
    """
    columns = [rows.keep, rows.observed, rows.bound, rows.margin, rows.margin >= -rows.tol,
               *(rows.details[k] for k in detail_keys if k in rows.details)]
    hole, templates = "\ue000", []
    for m in range(len(rows.tags)):
        params = rows.params(m, hole)
        line = _csv_line([rows.kind, *(_cell(params.get(k)) for k in param_keys),
                          hole, hole, hole, hole,  # observed, bound, margin, pass
                          *(hole if k in rows.details else None for k in detail_keys), ""])
        templates.append(line.replace("%", "%%").replace(hole, "%s"))
    cells = zip(*(map(repr, column.tolist()) for column in columns))
    return list(map(str.__mod__, map(templates.__getitem__, rows.members.tolist()), cells))


def _csv_line(row: list) -> str:
    """``csv.writer``'s text of one row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


def _cell(v):
    """csv writes None as "" and a float by repr; a list or dict goes as JSON."""
    return json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v


def write_report(report: dict, out_path: Path) -> None:
    """Write the report as CSV for a ``.csv`` path, else as JSON.  The text
    goes to a hidden file next to ``out_path``, which is then renamed over
    it, so a run stopped mid-write leaves the old report or none, never a
    partial one; a failed write removes its hidden file."""
    text = (report_to_csv(report) if out_path.suffix.lower() == ".csv"
            else report_to_json(report))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    partial = out_path.with_name(f".{out_path.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, out_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _default_out(subcommand: str, explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    base = Path(os.environ.get(OUTDIR_ENV, "."))
    return base / f"{subcommand}_report.json"


# --- subcommand handlers ----------------------------------------------------


def _particles_list(text: str) -> list[int]:
    fields = text.split(",")
    if not any(fields):
        raise ValueError(f"no particle number in {text!r}")
    if not all(fields):
        raise ValueError(f"empty particle number in {text!r}")
    numbers = []
    for field in fields:
        try:
            numbers.append(int(field))
        except ValueError:
            raise ValueError(f"non-integer particle number {field!r} in {text!r}") from None
    return numbers


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


def _spectrum_rows(psi, spectral, tags, args) -> list[bounds.TheoremReport]:
    """Informational per-trial dump of a batch, one row per tag: eigenvalues,
    health residuals and the shape of the Gram sum's block plan always, more
    on request."""
    g = spectral.operator
    blocks, widest = rdm.gram_block_shape(g.d, g.n_particles)
    columns = zip(tags, spectral.eigenvalues.tolist(), g.trace_residual.tolist(),
                  rdm.partial_trace_residual(spectral.one_body, psi).tolist(),
                  spectral.eigen_residual.tolist())
    rows = []
    for m, (tag, eigenvalues, trace, partial, eigen) in enumerate(columns):
        details = {"eigenvalues": eigenvalues, "trace_residual": trace,
                   "partial_trace_residual": partial, "eigen_residual": eigen,
                   "gamma2_blocks": blocks, "gamma2_widest": widest}
        if args.eigenvectors:
            details["eigenvectors"] = [{"re": x.real.tolist(), "im": x.imag.tolist()}
                                       for x in spectral.wedge_vectors[m].T]
        if args.dump_operator:
            details["operator"] = {"re": g.mat[m].real.tolist(),
                                   "im": g.mat[m].imag.tolist()}
        rows.append(bounds.TheoremReport(
            kind="spectrum", params={"d": g.d, "N": g.n_particles, **tag},
            details=details))
    return rows


def _cmd_verify(args) -> tuple[dict, list]:
    config: dict = {"check": args.check, "tol": args.tol}
    if args.check in ("thm1", "occupation"):
        config.update({"dim": args.dim, "particles": args.particles,
                       "trials": args.trials, "seed": args.seed,
                       "threads": args.threads})
        verify = (bounds.verify_theorem1 if args.check == "thm1"
                  else bounds.eigenvector_occupation_check)
        if args.trials < 1:
            raise ValueError(f"no trial in --trials {args.trials}")
        rdm.admit_gamma2(args.dim, args.particles)  # refuse before drawing a state
        admit_sweep(args.dim, args.trials, args.eigenvectors + args.dump_operator)
        batch = _batch_trials(args.dim, args.particles)
        checks, kept = [], 0
        for first in range(0, args.trials, batch):
            trials = range(first, min(first + batch, args.trials))
            tags = [{"seed": args.seed + t, "trial": t} for t in trials]
            psi = random_state(args.dim, args.particles, [tag["seed"] for tag in tags])
            spectral = rdm.spectral_decompose(rdm.compute_gamma2(psi))
            rows = verify(spectral, tol=args.tol, tag=tags)
            # each trial's spectrum row, then its rows, which are contiguous
            ends = np.searchsorted(rows.members, np.arange(len(tags) + 1)).tolist()
            for spectrum, lo, hi in zip(_spectrum_rows(psi, spectral, tags, args),
                                        ends, ends[1:]):
                checks += [spectrum, rows[lo:hi]]
            kept += len(rows)
        if not kept:  # a vacuous pass
            raise ValueError(f"no eigenvalue above --tol {args.tol!r} "
                             f"in --trials {args.trials}")
        return config, checks

    spec = parse_lambda_spec(args.lambda_spec)
    config["lambda"] = spec.config
    if args.check == "thm2":
        config["particles"] = args.particles
        n_list, k = _particles_list(args.particles), len(spec.values)
        # one scan per even N up to K; a larger N has N lam_max^2 > 1 and is skipped
        admit_log_scans(k, [n // 2 for n in n_list if 2 <= n <= k and n % 2 == 0])
        checks = [bounds.verify_theorem2(spec.values, n, tol=args.tol) for n in n_list]
        if all(c.passed is None for c in checks):  # a vacuous pass
            raise ValueError(f"no check evaluated in --particles {args.particles}: "
                             + "; ".join(f"N={c.params['N']} {c.note}" for c in checks))
        return config, checks
    if args.check == "prop":
        config["particles"] = args.particles
        op = pairing.PairOperator(spec.values)
        n_list = _particles_list(args.particles)
        for n in n_list:  # refuse the whole request before the first solve
            bounds.admit_proposition(op, n)
        return config, [bounds.proposition_report(op, n, tol=args.tol)
                        for n in n_list]
    op = pairing.PairOperator(spec.values)  # norms, the one target argparse leaves
    m_max = args.m_max if args.m_max is not None else op.n_pairs
    config["m_max"] = m_max
    return config, bounds.norm_recursion_check(op, m_max, tol=args.tol)


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
    profiles = [(n, spec.values) for n in n_list]
    if args.k_equals_n:
        if spec.kind == "explicit-file":
            raise ValueError("--k-equals-n needs a parametric profile")
        profiles = [(n, parse_lambda_spec(f"{spec.label.rpartition(':')[0]}:{n}").values)
                    for n in n_list]  # the profile's text with N for its K
    return config, bounds.counterexample_sweep(profiles, tol=args.tol)


class _Refusal(Exception):
    """A command line that :class:`_Parser` refuses; the one-line message."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser whose refusals are the usage errors of :func:`main`:
    one stderr line and exit 2, no usage block; ``--help`` still exits 0."""

    def error(self, message):
        raise _Refusal(f"{self.prog}: error: {message}")


def _arg(*flags, **declaration) -> tuple[tuple, dict]:
    """One argument declaration: ``add_argument``'s positional and keyword
    arguments."""
    return flags, declaration


class Command:
    """One command of the command line: its help text, its argument
    declarations in order, and its handler, which takes the parsed
    arguments and returns the report's config and checks.  (Not a
    dataclass, whose methods would be compiled at every import.)"""

    def __init__(self, help: str, arguments: tuple[tuple[tuple, dict], ...],
                 handler: Callable[[argparse.Namespace], tuple[dict, list]]):
        self.help, self.arguments, self.handler = help, arguments, handler


DESCRIPTION = ("Exact verification of two-body reduced-operator bounds "
               "on a finite fermionic Fock space.")
_COMMON = (  # every command's last three
    _arg("--out", type=str, default=None,
         help=f"report path (.json or .csv); default under ${OUTDIR_ENV}"),
    _arg("--tol", type=float, default=bounds.BOUND_TOL),
    _arg("--timing", action="store_true",
         help="embed wall-clock timing in the report (breaks byte-identical reruns)"),
)

# the command table: every command, in the order of the usage line
COMMANDS = {
    "canonical": Command("decompose a tensor file", (
        _arg("--tensor", type=str, required=True),
        _arg("--normalize", action="store_true",
             help="rescale the input to unit norm before decomposing"),
        _arg("--vectors", action="store_true",
             help="include the canonical vectors in the report"),
        *_COMMON), _cmd_canonical),
    "verify": Command("run one family of bound checks", (
        _arg("check", choices=["thm1", "thm2", "prop", "occupation", "norms"]),
        _arg("--dim", type=int, default=8),
        _arg("--particles", type=str, default="4",
             help="particle number, or comma list where applicable"),
        _arg("--trials", type=int, default=20),
        _arg("--seed", type=int, default=0),
        _arg("--threads", type=int, default=1,
             help="at least 1; recorded in the report, trials always run in order"),
        _arg("--lambda", dest="lambda_spec", type=str, default=None,
             help="coefficient profile, e.g. uniform:4 or power:1:8"),
        _arg("--m-max", type=int, default=None),
        _arg("--eigenvectors", action="store_true",
             help="include eigenvector amplitudes in spectrum rows"),
        _arg("--dump-operator", action="store_true",
             help="include the assembled operator matrix per trial"),
        *_COMMON), _cmd_verify),
    "explore": Command("empirical-constant sweep (no pass/fail)", (
        _arg("--lambda", dest="lambda_spec", type=str, required=True),
        _arg("--particles", type=str, required=True),
        *_COMMON), _cmd_explore),
    "counterexample": Command("overlap floor growth in N", (
        _arg("--lambda", dest="lambda_spec", type=str, required=True),
        _arg("--particles", type=str, required=True),
        _arg("--k-equals-n", action="store_true",
             help="replace K, the profile's last field, by each N; file: refused"),
        *_COMMON), _cmd_counterexample),
}


@lru_cache(maxsize=len(COMMANDS) + 1)
def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of ``command``'s command lines, or with None the bare
    parser, built on the first call for each and returned by every later
    one.  Nothing builds one at import.

    Every parser has a subparser for each command of :data:`COMMANDS`, with
    its name and help text, so its usage line, ``--help`` and ``invalid
    choice`` refusal are those of one tree holding every command; only the
    subparser of ``command`` declares arguments, ``-h`` among them.
    argparse hands the rest of a command line to the subparser of its first
    word naming a command, which is ``command`` for every command line
    :func:`main` parses with it (:func:`_command_of`), so the others are
    never run.  ``parse_args`` reads the parser and fills a new namespace
    per call, so no state passes from one call to the next.
    """
    parser = _Parser(prog="gamma2lab", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        declared = sub.add_parser(name, help=entry.help, add_help=name == command)
        if name == command:
            for flags, declaration in entry.arguments:
                declared.add_argument(*flags, **declaration)
    return parser


def _command_of(argv: list[str]) -> str | None:
    """The command of a command line, whose parser :func:`main` uses: its
    first word naming one, or None.  argparse runs that word's subparser;
    the words before it can only be options, and the top parser's take no
    value."""
    return next((word for word in argv if word in COMMANDS), None)


def _usage_error(args, out_path: Path) -> str | None:
    """The message of the first usage error in ``args``, or None.  A
    single particle number of ``verify thm1/occupation`` is read to an int
    here; an ``out_path`` that is a directory, or lies under a path whose
    nearest existing ancestor is not a directory that this process may
    write and search, could take no report."""
    if not np.isfinite(args.tol):
        return f"--tol must be finite, not {args.tol!r}"
    if args.tol < 0:
        return f"--tol must be non-negative, not {args.tol!r}"
    if args.command == "verify" and args.threads < 1:
        return f"--threads must be at least 1, not {args.threads}"
    if args.command == "verify" and args.check in ("thm1", "occupation"):
        try:
            args.particles = int(args.particles)
        except ValueError:
            return "verify thm1/occupation take a single particle number"
        if args.seed < 0 or args.seed + args.trials - 1 >= 2 ** 64:
            return (f"--seed {args.seed} with --trials {args.trials} leaves the "
                    f"seed range [0, 2**64)")
    elif args.command == "verify" and not args.lambda_spec:  # thm2, prop, norms
        return f"verify {args.check} requires --lambda"
    if out_path.is_dir():
        return f"report path {out_path} is a directory"
    ancestor = next(p for p in out_path.parents if p.exists())
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        return f"report path {out_path} lies under {ancestor}, not a writable directory"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(_command_of(argv)).parse_args(argv)
        out_path = _default_out(args.command, args.out)
        message = _usage_error(args, out_path)
    except _Refusal as exc:
        message = str(exc)
    if message is not None:  # before any handler
        print(message, file=sys.stderr)
        return 2
    started = time.monotonic()
    failure = None
    try:
        config, checks = COMMANDS[args.command].handler(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError,
            MemoryError) as exc:
        config = {"argv": argv}
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


# Objects made by the imports live as long as the process, so the collector
# need never scan them again; the freeze also zeroes the young generation's
# count, so main() starts at the same point of the collector's cycle
# however much the imports allocated.
gc.freeze()

if __name__ == "__main__":
    raise SystemExit(main())
