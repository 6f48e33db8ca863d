"""The float margins of ``verify thm2`` and ``counterexample`` against their
exact values (``exact.py``), from the same floats w the command line reads.

The worst float-against-exact error measured over about 22,000 profiles
with K <= 7 and every even N, in units of eps * max(1, |floor|), was 16.1
for thm2 (geometric:1.0056:7 at N = 6) and 1.4 for counterexample; the
uniform profiles uniform:4 (N = 4), uniform:9 (N = 6, 8) and uniform:16
(N = 8) stay under 3.4.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamma2lab import bounds, cli

import exact

EPS = Fraction(np.finfo(np.float64).eps)
C_THM2, C_COUNTEREXAMPLE = 32, 4  # twice the measured worst, rounded up

K = st.integers(1, 7)
PARAMETRIC = st.one_of(
    K.map("uniform:{}".format),
    st.tuples(st.floats(0.05, 4.0), K).map(lambda a: "geometric:{}:{}".format(*a)),
    st.tuples(st.floats(0.0, 4.0), K).map(lambda a: "power:{}:{}".format(*a)))
ENTRIES = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=7).filter(any)  # file: rows
PROFILES = PARAMETRIC.map(exact.weights) | ENTRIES.map(np.array)


def _close(report, margin, floor, c):
    return abs(Fraction(report.margin) - margin) <= c * EPS * max(1, abs(floor))


@given(PARAMETRIC | ENTRIES)
@settings(max_examples=60, deadline=None)
def test_resolve_pins_the_parsed_values(profile):
    # the exact tier's w, resolved, is the parsed profile bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(profile, list):
            Path(tmp, "w").write_text("\n".join(map(repr, profile)))
            profile = f"file:{Path(tmp, 'w')}"
        assert (cli._resolve(exact.weights(profile)).tobytes()
                == cli.parse_lambda_spec(profile).values.tobytes())


@given(PROFILES)
@example(exact.weights("uniform:4"))
@example(exact.weights("uniform:9"))
@example(exact.weights("uniform:16"))
@settings(max_examples=100, deadline=None)
def test_margins_within_c_eps_of_exact(w):
    lams = cli._resolve(w)
    for N in (2, 4, 6, 8):  # K <= 7 has no admitted thm2 row above N = 7
        report = bounds.verify_theorem2(lams, N)
        if report.margin is not None:  # else skipped
            assert _close(report, *exact.thm2(w, N), C_THM2), N
        if N <= len(w):
            report = bounds.counterexample_driver(lams, N)
            assert _close(report, *exact.counterexample(w, N), C_COUNTEREXAMPLE), N
