"""End-to-end benchmark of the gamma2lab CLI, with an optional traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from anywhere; the checkout root is the parent of this directory and the
package is imported from its ``src/``.  Each repetition is a fresh child
process (``bench_child.py``) that imports ``gamma2lab.cli`` and runs the
workload's operations through ``cli.main`` with cold in-process caches.
Repetitions start until the next one would end after ``--seconds``.  Every
repetition's reports must be byte-identical to the first one's and pass
``bench_gate``; a miss counts as a failed operation, never aborts the run,
and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics, each the mean over the
untraced repetitions.  ``wall_s`` and ``setup_s`` are in reference seconds:
measured seconds times ``CALIBRATION_REF_S`` over the mean time a fixed
calibration kernel (``calibrate``) took in this process just before each
child started and just after it ended.  The reference machine's host is shared, and
how fast it runs the same single-threaded code swings by up to 2x from
minute to minute; the scaling cancels most of that swing.  Raw seconds are printed
and recorded too.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: self times and counts from the traced children, import
times from ``-X importtime``, and the tracing overhead.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
a full record goes to ``.bench_out/BENCH_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_gate
from bench_child import IMPORT_DONE_MARKER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
RUN_CAP_S = 150           # never start a repetition after this much of a run
BLAS_THREADS = 1          # pinned in every child: steadier than 2 on a shared box
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PACKAGES = ("numpy", "scipy", "gamma2lab")
# calibrate() on the reference machine (Intel Xeon, 2 vCPUs, one BLAS
# thread) while its host was quiet.
CALIBRATION_REF_S = 0.145

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SCALED = ("wall_s", "setup_s")   # reported in reference seconds

# name, unit, better; the end-to-end metric each should move is in README.md.
PER_LAYER = (
    *((f"setup.{p}_s", "s", "lower") for p in IMPORT_PACKAGES),
    *((f"{layer}.self_s", "s", "lower") for layer in
      ("fock", "canonical", "rdm", "pairing", "bounds", "cli", "linalg")),
    ("fock.occupation_masks.self_s", "s", "lower"),
    ("fock.occupation_masks.calls", "count", "lower"),
    ("fock.states_enumerated", "count", "lower"),
    ("fock.mask_cache_hit_ratio", "ratio", "higher"),
    ("fock.apply_annihilate.self_s", "s", "lower"),
    ("fock.apply_annihilate.calls", "count", "lower"),
    ("fock.apply_annihilate_vector.self_s", "s", "lower"),
    ("fock.apply_annihilate_vector.calls", "count", "lower"),
    ("canonical.youla_decompose.self_s", "s", "lower"),
    ("canonical.youla_decompose.calls", "count", "lower"),
    ("canonical.tensor_from_wedge_amplitudes.self_s", "s", "lower"),
    ("rdm.compute_gamma2.self_s", "s", "lower"),
    ("rdm.compute_gamma2.calls", "count", "lower"),
    ("rdm.gamma2_column_bytes", "B_computed", "lower"),
    ("rdm.spectral_decompose.self_s", "s", "lower"),
    ("rdm.apply_pair_annihilator.self_s", "s", "lower"),
    ("pairing.apply_B.self_s", "s", "lower"),
    ("pairing.apply_B.calls", "count", "lower"),
    ("pairing.apply_B_star.self_s", "s", "lower"),
    ("pairing.apply_B_star.calls", "count", "lower"),
    ("pairing.dense_b_matrix.self_s", "s", "lower"),
    ("pairing.build_pairing_state.self_s", "s", "lower"),
    ("linalg.eigvalsh.self_s", "s", "lower"),
    ("linalg.eigvalsh.dim_max", "rows", "lower"),
    ("linalg.eigsh.self_s", "s", "lower"),
    ("bounds.lanczos_matvecs", "count", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.eigh.self_s", "s", "lower"),
    *((f"bounds.{fn}.self_s", "s", "lower") for fn in (
        "verify_theorem1", "eigenvector_occupation_check", "proposition_gap",
        "sup_over_states", "explore_conjecture", "counterexample_driver")),
    ("cli.random_state.self_s", "s", "lower"),
    ("cli.build_report.self_s", "s", "lower"),
    ("cli.write_report.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here at all (no program, broken interpreter)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    return env


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not touch gamma2lab.

    The kernel mixes the kinds of work the program does, in roughly equal
    parts: interpreted loops, many small numpy calls, scatter-adds over a
    large index map, streaming over an array larger than the L2 cache (the
    Lanczos solves are bound by memory bandwidth), and dense LAPACK.  It
    runs in this process, never in a child, so it cannot raise a child's
    peak RSS.
    """
    import numpy as np

    started = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i
    small = np.arange(64.0)
    for _ in range(15_000):
        small = np.sqrt(small * small + 1.0) - 0.5
    n = 1 << 17
    perm = (np.arange(n, dtype=np.int64) * 7919) % n
    vec = np.ones(n, dtype=np.complex128)
    for _ in range(6):
        nxt = np.zeros(n, dtype=np.complex128)
        nxt[perm] += 0.5 * vec
        vec = nxt
    stream = np.ones(1 << 22)
    for _ in range(12):
        stream *= 1.0000001
    mat = np.cos(np.arange(250 * 250, dtype=np.float64).reshape(250, 250))
    for _ in range(6):
        np.linalg.qr(mat)
    return time.perf_counter() - started


def run_child(ops: list[dict], outdir: Path, traced: bool) -> dict:
    """One repetition in a fresh interpreter; returns its measurements.

    Never raises for a failing child: ``{"crashed": reason}`` comes back
    instead, and the caller counts its operations as failed.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    ops_path, result_path = outdir / "ops.json", outdir / "result.json"
    ops_path.write_text(json.dumps([op["argv"] for op in ops]), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "bench_child.py"), str(ROOT), str(ops_path), str(outdir),
            str(result_path)]
    if traced:
        cmd.append(str(outdir / "spans.jsonl"))
    calibration = [calibrate()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S} s"}
    calibration.append(calibrate())
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["calibration_s"] = calibration
    if traced:
        result["import_s"] = import_times(proc.stderr)
    return result


def import_times(stderr: str) -> dict:
    """Self import time per top-level package from ``-X importtime`` output,
    counting only the lines before the child finished importing the CLI."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if line.startswith(IMPORT_DONE_MARKER):
            break
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us) / 1e6
    return totals


def layer_values(rep: dict) -> dict:
    """Flat per-layer values of one traced repetition."""
    trace = rep["trace"]
    values = {f"setup.{pkg}_s": s for pkg, s in rep["import_s"].items()}
    layer_self = {}
    for name, s in trace["self_s"].items():
        values[f"{name}.self_s"] = s
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    values.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
    values.update({f"{name}.calls": n for name, n in trace["calls"].items()})
    values.update(trace["counters"])
    values["trace.wall_s"] = rep["wall_s"]
    values["trace.unattributed_s"] = rep["wall_s"] - sum(trace["self_s"].values())
    return values


def read_reports(outdir: Path, count: int) -> list[bytes | None]:
    paths = (outdir / f"op{i}.json" for i in range(count))
    return [p.read_bytes() if p.exists() else None for p in paths]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(blas_measured) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"nproc": nproc, "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "blas_threads_requested": BLAS_THREADS,
            "blas_threads_measured": blas_measured}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the full record."""
    if not (ROOT / "src" / "gamma2lab" / "cli.py").is_file():
        raise BenchmarkError(f"no gamma2lab sources under {ROOT / 'src'}")
    rundir = OUT / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    ops = WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"), rundir)
    # Pays one-off bytecode compilation and cold file cache outside the timing.
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import gamma2lab.cli", str(ROOT / "src")],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        raise BenchmarkError(f"cannot import gamma2lab.cli:\n{warm.stderr[-2000:]}")

    reps, problems = [], []
    attempted = failed = 0
    reference = None
    longest = 0.0
    started = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_started = time.monotonic()
        repdir = rundir / f"rep{len(reps)}"
        rep = run_child(ops, repdir, traced)
        rep["traced"] = traced
        reps.append(rep)
        attempted += len(ops)
        if "crashed" in rep:
            failed += len(ops)
            problems.append(f"rep {len(reps) - 1}: child failed: {rep['crashed']}")
        else:
            reports = read_reports(repdir, len(ops))
            if reference is None:
                reference = reports
            for i, (op, outcome) in enumerate(zip(ops, rep["ops"])):
                found = _gate(op, outcome, reports[i], reference[i])
                if found:
                    failed += 1
                    problems += [f"rep {len(reps) - 1} op {i}: {p}" for p in found]
            if len(reps) > 1:  # identical to rep 0's reports, which are kept
                for i in range(len(ops)):
                    (repdir / f"op{i}.json").unlink(missing_ok=True)
        longest = max(longest, time.monotonic() - rep_started)
        elapsed = time.monotonic() - started
        enough = len(reps) >= (2 if trace else 3)
        if elapsed >= RUN_CAP_S or (enough and elapsed + longest > seconds):
            break

    good = [r for r in reps if "crashed" not in r]
    plain = [r for r in good if not r["traced"]]
    traced_reps = [r for r in good if r["traced"]]
    if not plain or (trace and not traced_reps):
        raise BenchmarkError("no repetition completed:\n" + "\n".join(problems[-5:]))
    # One scale for the whole run: the rate of the calibration kernel over
    # all repetitions.  Swings shorter than a repetition then average out
    # instead of landing in one repetition's ratio.
    scale = CALIBRATION_REF_S / statistics.fmean(
        c for r in plain for c in r["calibration_s"])
    summary = {m: _summary([r[m] * (scale if m in SCALED else 1.0) for r in plain])
               for m, _ in END_TO_END}
    if trace:
        per_rep = [layer_values(r) for r in traced_reps]
        values = {name: statistics.median(v.get(name, 0.0) for v in per_rep)
                  for name, _, _ in PER_LAYER}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_reps)
            - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        units = dict(END_TO_END)
        metrics = {m: {"value": summary[m]["mean"], "unit": units[m]}
                   for m in units}
    env = environment(sorted({r["blas_threads"] for r in good}, key=str))
    if any(n is not None and n > env["nproc"] for n in env["blas_threads_measured"]):
        raise BenchmarkError(f"BLAS threads {env['blas_threads_measured']} "
                             f"exceed nproc {env['nproc']}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": WORKLOADS[workload].why, "operations": [op["argv"] for op in ops],
        "environment": env, "repetitions": len(reps), "untraced": len(plain),
        "traced": len(traced_reps), "end_to_end": summary,
        "measured": {m: [r[m] for r in plain] for m, _ in END_TO_END},
        "calibration_s": [r["calibration_s"] for r in plain],
        "scale": scale,
        "error_rate": failed / attempted, "problems": problems,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def _gate(op, outcome, report_bytes, reference_bytes) -> list[str]:
    if outcome["error"]:
        return [f"exception: {outcome['error']}"]
    report = None
    if report_bytes is not None:
        try:
            report = json.loads(report_bytes)
        except ValueError:
            return ["report is not valid JSON"]
    found = bench_gate.check(op, outcome["exit_code"], report)
    if report_bytes is not None and report_bytes != reference_bytes:
        found.append("report differs from the first repetition's")
    return found


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "n": len(values)}


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}"
          f" repetitions={record['repetitions']} (untraced {record['untraced']},"
          f" traced {record['traced']}) error_rate={record['error_rate']:.4g}")
    print(f"# nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']}"
          f" numpy={env['numpy']} scipy={env['scipy']}"
          f" blas_threads={env['blas_threads_measured']}")
    for name, q in record["end_to_end"].items():
        print(f"# {name}: mean {q['mean']:.6g} (median {q['median']:.6g},"
              f" q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})")
    for name in SCALED:
        raw = record["measured"][name]
        print(f"# {name} in measured seconds: mean {statistics.fmean(raw):.6g}"
              f" (calibration scale {record['scale']:.4g})")
    for problem in record["problems"][:20]:
        print(f"# FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before numpy is first imported, so that calibrate() uses one BLAS
    # thread like the children.
    os.environ.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [measure(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_summary(record)
    if args.workload == "all":
        print(f"# {'workload':<22} {'wall_s':>10} {'setup_s':>9} "
              f"{'peak_rss_mb':>12} {'error_rate':>10}")
        for r in records:
            e = r["end_to_end"]
            print(f"# {r['workload']:<22} {e['wall_s']['mean']:>10.4f} "
                  f"{e['setup_s']['mean']:>9.4f} {e['peak_rss_mb']['mean']:>12.2f} "
                  f"{r['error_rate']:>10.4g}")
        result = {"correct": all(r["result"]["correct"] for r in records),
                  "attempted": sum(r["result"]["attempted"] for r in records),
                  "failed": sum(r["result"]["failed"] for r in records),
                  "metrics": {f"{r['workload']}.{k}": v for r in records
                              for k, v in r["result"]["metrics"].items()}}
        for r in records:
            result["metrics"][f"{r['workload']}.error_rate"] = {
                "value": r["error_rate"], "unit": "ratio"}
    else:
        result = records[0]["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
