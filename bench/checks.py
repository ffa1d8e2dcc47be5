"""Checks of each CLI output against a route independent of the one it used.

Checks run in the benchmark's parent process, so they fall outside both the
timed window and the traced spans of the worker that ran the CLI, and their
memory does not count towards the worker's peak RSS.

An invocation ends in one kind: ``ok``, ``exit1``, ``exit2``, ``exit3``,
``uncaught`` (an exception escaped ``main``) or ``wrong`` (an output that
fails its check, or an exit code that contradicts the output).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from krylovgrowth.algebra import LiouvillianSpec
from krylovgrowth.bch import decompose_exponential
from krylovgrowth.coherent import (
    autocorrelator_t,
    closed_form_params,
    complexity_closed,
    moment_identity_value,
    phi_zero,
)
from krylovgrowth.errors import DecompositionFailure

KINDS = ("ok", "exit1", "exit2", "exit3", "uncaught", "wrong")

# CLI defaults for the flags a schedule may leave out.
_DEFAULTS = {"alpha": 1.0, "beta": 1.0, "tmin": 0.0, "tmax": 2.0, "steps": 41,
             "dim": 256, "tol": 1e-10, "mode": "complexity", "format": "csv"}

# CSV carries 12 significant digits, so every relative tolerance below stays
# well above 5e-13.
COMPLEXITY_RTOL = 1e-9
# The CLI sums k^2 |phi_k|^2 to a 1e-13 tail; over 50 successful variance
# sweeps of this workload the worst relative deviation from the closed
# fixed-s identity was 1.5e-10.
VARIANCE_RTOL = 1e-8
# The bch route matches the 4x4 group element to 1e-8 in its entries.
SURVIVAL_RTOL = 1e-7

# How many survival probabilities (autocorrelator values and distribution
# p0) were checked by the bch route, and how many fell back to the CLI's own
# closed-form route because bch is not defined there. A fallback value is
# only compared with itself, so the second count is what the check misses.
SURVIVAL_ROUTES: Counter = Counter()


class WrongAnswer(Exception):
    """An output that disagrees with its independent check."""


def parse_argv(argv: List[str]) -> Dict[str, object]:
    cfg = dict(_DEFAULTS)
    for flag, value in zip(argv[::2], argv[1::2]):
        key = flag.lstrip("-")
        default = _DEFAULTS[key]
        cfg[key] = type(default)(value) if not isinstance(default, str) else value
    return cfg


def survival(spec: LiouvillianSpec, t: float) -> float:
    """|phi_0|^2 from the bch factorisation of the 4x4 exponential, or from
    the closed-form parameters where that route is not defined."""
    try:
        value = abs(phi_zero(decompose_exponential(spec, t))) ** 2
    except (DecompositionFailure, OverflowError):
        SURVIVAL_ROUTES["own"] += 1
        return autocorrelator_t(spec, t)
    SURVIVAL_ROUTES["bch"] += 1
    return value


def _close(got: float, want: float, rtol: float, what: str, atol: float = 1e-300) -> None:
    if not (math.isfinite(got) and abs(got - want) <= max(rtol * abs(want), atol)):
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")


def _read_rows(path: Path, fmt: str) -> List[Tuple[float, Dict[str, float]]]:
    text = path.read_text()
    if fmt == "json":
        return [(row["t"], row["values"]) for row in json.loads(text)["rows"]]
    lines = text.splitlines()
    keys = lines[0].split(",")[1:]
    rows = []
    for line in lines[1:]:
        fields = [float(x) for x in line.split(",")]
        rows.append((fields[0], dict(zip(keys, fields[1:]))))
    return rows


def _check_rows(cfg: Dict[str, object], rows) -> None:
    mode = cfg["mode"]
    spec = LiouvillianSpec(cfg["alpha"], cfg["beta"])
    steps = cfg["steps"]
    grid = np.linspace(cfg["tmin"], cfg["tmax"], steps) if steps > 1 else [cfg["tmin"]]
    if len(rows) != steps:
        raise WrongAnswer(f"{len(rows)} rows for {steps} steps")
    for (printed_t, values), t in zip(rows, grid):
        t = float(t)
        _close(printed_t, t, 1e-11, "grid time", atol=1e-12)
        if mode in ("complexity", "variance"):
            p = closed_form_params(spec, t)
            K = complexity_closed(p)
            _close(values["K"], K, COMPLEXITY_RTOL, f"K at t={t}", atol=1e-12)
            if mode == "variance":
                if p.w == 0:
                    _close(values["sigma2"], 0.0, 0.0, f"sigma2 at t={t}", atol=1e-12)
                else:
                    want = moment_identity_value(p, 2) - K * K
                    _close(values["sigma2"], want, VARIANCE_RTOL, f"sigma2 at t={t}", atol=1e-12)
        elif mode == "distribution":
            total = math.fsum(values.values())
            _close(total, 1.0, 0.0, f"total probability at t={t}", atol=cfg["tol"] + 1e-12)
            _close(values["p0"], survival(spec, t), SURVIVAL_RTOL, f"p0 at t={t}")
        elif mode == "autocorrelator":
            _close(values["autocorrelator"], survival(spec, t), SURVIVAL_RTOL,
                   f"autocorrelator at t={t}")
    if mode == "lanczos":
        _check_chain(cfg, rows)


def _check_chain(cfg: Dict[str, object], rows) -> None:
    """K_chain(0) = 0, and K_chain(t1) = b1^2 t1^2 (1 + O(t1^2)), b1^2 = alpha^2 + beta^2/2.

    The t^4 term is b1^2 (b2^2/6 - b1^2/3 - a1^2/12) t^4; for alpha, beta in
    [0.25, 1.5] its ratio to b1^2 t^4 stays below 0.36 (alpha^2 + beta^2), so
    (alpha^2 + beta^2) t1^2 bounds the relative deviation with margin.
    """
    alpha, beta = cfg["alpha"], cfg["beta"]
    _close(rows[0][1]["K_chain"], 0.0, 0.0, "K_chain(0)", atol=1e-10)
    if len(rows) > 1:
        t1 = rows[1][0]
        b1sq = alpha ** 2 + beta ** 2 / 2
        _close(rows[1][1]["K_chain"], b1sq * t1 ** 2, (alpha ** 2 + beta ** 2) * t1 ** 2,
               f"K_chain at t={t1}")


def check(argv: List[str], rc, uncaught: bool, out: Path) -> Tuple[str, int, str]:
    """Classify one invocation: (kind, grid rows delivered, detail)."""
    cfg = parse_argv(argv)
    if uncaught:
        return "uncaught", 0, ""
    if rc == 0:
        try:
            rows = _read_rows(out, cfg["format"])
            _check_rows(cfg, rows)
        except WrongAnswer as exc:
            return "wrong", 0, str(exc)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return "wrong", 0, f"unreadable output: {type(exc).__name__}: {exc}"
        return "ok", len(rows), ""
    if rc in (1, 2, 3):
        return f"exit{rc}", 0, ""
    return "wrong", 0, f"undocumented exit code {rc!r}"
