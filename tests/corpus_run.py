"""Run command lines through ``cli.main``, all in this one interpreter.

    python corpus_run.py '[["verify", "thm2", ...], ...]'

Before the command line is imported, scipy is masked (every import of it
fails, as if it were not installed), ``subprocess.Popen`` records what it
is asked to start and raises, the parsers named ``gamma2lab`` are counted
and ``sys.setprofile`` records every Python frame entered.  Prints one JSON
object: ``runs``, per argv the exit code (or the name of the exception that
escaped ``main``), stderr and seconds; ``processes`` asked for; ``parsers``
built by the import and by the end; ``frozen``, whether the import ended
in ``gc.freeze()`` and whether ``cli.main`` is still tracked by the
collector; ``scipy``, ``cli.SCIPY_VERSION``; and ``entered``, the file
name, first line and name of every package code object entered.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import traceback

sys.modules["scipy"] = None
processes = []


def no_process(args, *rest, **kwargs):
    processes.append(repr(args))
    raise AssertionError("a process was started")


subprocess.Popen = no_process
built = []
init = argparse.ArgumentParser.__init__


def counting(self, *args, **kwargs):
    init(self, *args, **kwargs)
    if self.prog == "gamma2lab":  # subparsers are named "gamma2lab <command>"
        built.append(self)


argparse.ArgumentParser.__init__ = counting
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from gamma2lab import cli  # noqa: E402  what runs at import counts too

parsers = [len(built)]
frozen = [gc.get_freeze_count() > 0, id(cli.main) in set(map(id, gc.get_objects()))]
runs = []
for argv in json.loads(sys.argv[1]):
    err, started = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # recorded, so one line cannot hide the others
            code = type(exc).__name__
            traceback.print_exc()
    runs.append([code, err.getvalue(), time.perf_counter() - started])
sys.setprofile(None)
parsers.append(len(built))

root = os.path.dirname(cli.__file__) + os.sep
print(json.dumps({
    "runs": runs, "processes": processes, "parsers": parsers, "frozen": frozen,
    "scipy": cli.SCIPY_VERSION,
    "entered": sorted({(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
                       for c in entered if c.co_filename.startswith(root)})}))
