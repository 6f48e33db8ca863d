"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: bench_child.py ROOT OPS_JSON OUTDIR RESULT_JSON [SPANS_JSONL]

Imports ``gamma2lab.cli`` from ``ROOT/src`` (timed: the set-up cost every
CLI user pays), then calls ``cli.main`` in-process once per operation in
``OPS_JSON`` (a JSON list of argv lists), writing operation ``i``'s report
to ``OUTDIR/op<i>.json``.  When ``SPANS_JSONL`` is given the package is
traced (see ``bench_trace``) and the spans are written there at the end.
The measurements go to ``RESULT_JSON``.  A line ``IMPORT_DONE_MARKER`` on
stderr separates import-time output from the operations' output.
"""

from __future__ import annotations

# Only modules the interpreter loads at start-up come before the timed
# import, so that setup_s includes every module gamma2lab.cli pulls in.
import os
import sys
import time

IMPORT_DONE_MARKER = "bench-child: import done"


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return int(getattr(lib, symbol)())
    return None


def main(argv: list[str]) -> int:
    src = os.path.realpath(os.path.join(argv[0], "src"))
    sys.path.insert(0, src)

    started = time.perf_counter()
    import gamma2lab.cli as cli
    setup_s = time.perf_counter() - started
    print(IMPORT_DONE_MARKER, file=sys.stderr, flush=True)

    import json
    import resource
    import traceback
    from pathlib import Path

    ops_path, outdir, result_path = (Path(a) for a in argv[1:4])
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"gamma2lab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path is not None:
        import bench_trace
        tracer = bench_trace.install()

    ops = json.loads(ops_path.read_text(encoding="utf-8"))
    outdir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    first = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            code = cli.main(op + ["--out", str(outdir / f"op{i}.json")])
            error = None
        except SystemExit as exc:  # argparse rejects the command line
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception:  # counted as a failed operation, never fatal
            code, error = None, traceback.format_exc(limit=3)
        outcomes.append({"exit_code": code, "error": error})
    wall_s = time.perf_counter() - first
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_kb / 1024.0,
              "ops": outcomes, "blas_threads": blas_threads()}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spans_path)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
