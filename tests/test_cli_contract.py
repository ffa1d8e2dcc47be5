"""The CLI's documented contract as a property test.

Every input ``krylov-growth`` accepts ends in exit 0, 1, 2 or 3, never in a
traceback or a warning; an exit 1 or 2 ends in one error line (argparse may
print its usage block first); the output of an exit 0 parses, and that of
``verify`` holds the report's keys. Inputs are argv lists and ``--config``
files over the six modes, with extreme floats and ints in every numeric
flag. ``--dim`` stays at or below 1025 (256 for ``verify``, the one mode
that reads it) and ``--steps`` at or below 101, so that each call takes
milliseconds, except a ``lanczos`` call whose grid needs the 1024-site
chain: about 0.6 s.
"""

import contextlib
import io
import json
import math
import sys
import warnings

import pytest

from krylovgrowth.cli import MODES, main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

# The magnitudes where the closed forms, the oracle and the chain change
# regime or leave the float range, from the smallest subnormal to the
# largest float.
MAGNITUDES = [0.0, 5e-324, 1e-300, 1e-200, 1e-160, 1e-154, 1e-5, 0.05, 0.25, 0.5, 1.0, 1.5,
              2.0, 4.0, 6.0, 50.0, 800.0, 1e150, 1e154, 1e155, 1e200, 1e308,
              sys.float_info.max, math.inf, math.nan]
FLOATS = st.one_of(
    st.sampled_from(MAGNITUDES + [-x for x in MAGNITUDES]).map(repr),
    st.floats(-3.0, 3.0).map(repr),
    st.floats(0.0, 3.0).map(repr),
    st.integers(-3, 1025).map(str),
)
SWEEP_KEYS = {"complexity": ["K"], "variance": ["K", "sigma2"], "autocorrelator":
              ["autocorrelator", "alt_form"], "lanczos": ["K_chain"]}
REPORT_KEYS = ["config", "oracle_vs_closed_form", "normalization", "complexity_closed_vs_direct",
               "variance_closed_vs_direct", "limit_recovery", "documented_discrepancies", "pass"]


def mostly(valid, other):
    """``valid`` three times in four, else ``other``."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else valid)


@st.composite
def invocations(draw):
    """(mode, format, flags, in_config): each flag (name, value) is passed
    on the command line or, where ``in_config`` holds its name, in a
    ``--config`` file. Valid values are drawn more often than invalid ones,
    so that every exit code is reached."""
    mode = draw(st.sampled_from(MODES))
    values = {"mode": mode}
    for name in ("alpha", "beta", "tmin", "tmax"):
        if draw(st.booleans()):
            values[name] = draw(FLOATS)
    if "tmin" in values and "tmax" in values and draw(mostly(st.just(True), st.just(False))):
        values["tmin"], values["tmax"] = sorted([values["tmin"], values["tmax"]], key=float)
    if draw(st.booleans()):
        values["tol"] = draw(mostly(st.floats(1e-14, 1e-4).map(repr), FLOATS))
    if draw(st.booleans()):
        values["steps"] = draw(mostly(st.integers(1, 101).map(str),
                                      st.one_of(st.integers(-2, 0).map(str), FLOATS)))
    if draw(st.booleans()):
        dim = st.integers(4, 256 if mode == "verify" else 1025).map(str)
        values["dim"] = draw(mostly(dim, st.one_of(st.integers(-2, 3).map(str),
                                                   st.sampled_from(["1e3", "nan"]))))
    values["format"] = fmt = draw(st.sampled_from(["csv", "json"]))
    in_config = draw(st.sets(st.sampled_from(list(values))))
    return mode, fmt, list(values.items()), in_config


def _check_sweep_output(mode, fmt, text):
    if fmt == "csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header[0] == "t" and len(lines) >= 2
        if mode in SWEEP_KEYS:
            assert header[1:] == SWEEP_KEYS[mode]
        for line in lines[1:]:
            assert len(line.split(",")) == len(header), line
        return
    doc = json.loads(text)
    assert list(doc) == ["config", "rows"] and doc["config"]["mode"] == mode
    assert doc["rows"]
    for row in doc["rows"]:
        keys = ["t", "values", "method"] + (["amplitudes"] if mode == "distribution" else [])
        assert list(row) == keys
        if mode in SWEEP_KEYS:
            assert list(row["values"]) == SWEEP_KEYS[mode]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(invocations(), st.booleans())
def test_every_input_ends_in_a_documented_exit(tmp_path_factory, invocation, to_file):
    mode, fmt, flags, in_config = invocation
    work = tmp_path_factory.mktemp("contract")
    argv = [f"--{name}={value}" for name, value in flags if name not in in_config]
    if in_config:
        config = work / "run.cfg"
        config.write_text("".join(f"{name} = {value}\n" for name, value in flags
                                  if name in in_config))
        argv.append(f"--config={config}")
    out = work / "out.txt"
    if to_file:
        argv.append(f"--out={out}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err and "Warning" not in err, argv
    lines = err.splitlines()
    if code == 1:
        # an argparse error ends its usage block with "prog: error: ..."
        if lines[-1].startswith("krylov-growth: error:"):
            assert lines[0].startswith("usage: krylov-growth")
        else:
            assert len(lines) == 1 and lines[0].startswith("invalid configuration: "), err
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), err
    if code in (1, 2):
        assert stdout.getvalue() == "" and not out.exists()
        return
    text = out.read_text() if to_file else stdout.getvalue()
    assert stdout.getvalue() == ("" if to_file else text)
    if mode == "verify":
        report = json.loads(text)
        assert list(report) == REPORT_KEYS and report["pass"] is (code == 0)
        assert [line.split(": ")[0] for line in lines] == REPORT_KEYS[1:6]
        return
    assert code == 0 and err == ""
    _check_sweep_output(mode, fmt, text)
