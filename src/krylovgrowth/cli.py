"""Command-line front end: parameter sweeps, figure data, verification.

One entry point (``krylov-growth``) drives the library over a time grid.
Grid points are evaluated in grid order, and identical configurations
produce byte-identical output files.

Exit codes: 0 success, 1 invalid configuration (a non-finite alpha,
beta, time or tolerance included, an ``--out`` file that cannot be
written, and a ``--steps``, or a ``verify`` ``--dim``, too large to
allocate or index), 2 numerical failure (an edge leak of the longest
chain, non-convergent series, a result beyond the float range; the message
carries the offending alpha, beta, t and, in ``verify``, dim), 3 authoritative
verification failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from itertools import accumulate
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from .algebra import ORACLE_TOLERANCE, LiouvillianSpec, chain_states, oracle_states
from .coherent import (
    DisplacementParams,
    amplitude_deviation,
    autocorrelator_alt_closed_form,
    autocorrelator_t,
    closed_form_params,
    complexity_closed,
    late_time_growth_exponent,
    mehler_normalization_check,
    moment_n,
    phi_series,
    schrodinger_complexity_t,
    sl2r_profile,
    variance_alt_closed_form,
    _moments,
    _square_is_normal,
)
from .errors import KrylovGrowthError, _log
from .lanczos import chain_complexity

__all__ = ["SweepConfig", "run_sweep", "figure_data", "verify", "main"]

MODES = ("complexity", "variance", "distribution", "autocorrelator", "lanczos", "verify")
FIGURES = ("fig1", "fig2", "fig3")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class SweepConfig:
    alpha: float = 1.0
    beta: float = 1.0
    t_min: float = 0.0
    t_max: float = 2.0
    steps: int = 41
    dim: int = 256
    tol: float = 1e-10
    mode: str = "complexity"

    def __post_init__(self):
        for name in ("alpha", "beta", "t_min", "t_max", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_min > self.t_max:
            raise ValueError(f"t_min {self.t_min} exceeds t_max {self.t_max}")
        if self.steps >= 2 and not math.isfinite(self.t_max - self.t_min):
            raise ValueError(f"grid span t_max - t_min from {self.t_min} to {self.t_max} "
                             "is beyond the float range")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.dim < 4:
            raise ValueError(f"dim must be >= 4, got {self.dim}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def t_grid(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.t_min])
        # a span near the float range can overflow the last product, which
        # np.linspace then replaces by t_max: the grid is finite either way
        with np.errstate(over="ignore"):
            return np.linspace(self.t_min, self.t_max, self.steps)

    def spec(self) -> LiouvillianSpec:
        return LiouvillianSpec(self.alpha, self.beta)


def _attach(err: Exception, cfg: SweepConfig, t: Optional[float]) -> KrylovGrowthError:
    """The numerical failure to report for ``err``, with the run's alpha,
    beta, (when known) t and, in ``verify``, the one mode that reads it, dim
    attached. A float-range overflow becomes a :class:`KrylovGrowthError`
    here, and only here."""
    if isinstance(err, OverflowError):
        # a float power past the range says only (34, 'Numerical result out
        # of range'), an errno pair that adds nothing to the context below
        detail = "" if err.args[:1] == (errno.ERANGE,) else f": {err}"
        err = KrylovGrowthError(f"result beyond the float range{detail}")
    err.context.update(alpha=cfg.alpha, beta=cfg.beta)
    if cfg.mode == "verify":
        err.context["dim"] = cfg.dim
    if t is not None:
        err.context["t"] = t
    return err


# A sweep row is {"t", "values", "method"}, and for ``distribution`` the
# amplitudes as [re, im] pairs, last: p0..p_{k_max} and phi_0..phi_{k_max} of
# that time's own series, which the writers pad with zeros to the widest row.
def _complexity_rows(cfg: SweepConfig, ts: Iterable[float]) -> List[dict]:
    spec = cfg.spec()
    return [{"t": t, "values": {"K": schrodinger_complexity_t(spec, t)}, "method": "closed_form"}
            for t in ts]


def _variance_rows(cfg: SweepConfig, ts: Iterable[float]) -> List[dict]:
    spec = cfg.spec()
    rows = []
    for t in ts:
        m1, m2 = _moments(closed_form_params(spec, t), (1, 2))
        rows.append({"t": t, "values": {"K": m1, "sigma2": m2 - m1 * m1}, "method": "closed_form"})
    return rows


def _distribution_rows(cfg: SweepConfig, ts: Iterable[float]) -> List[dict]:
    spec = cfg.spec()
    keys: List[str] = []
    rows = []
    for t in ts:
        series = phi_series(closed_form_params(spec, t), tol=cfg.tol)
        if len(keys) <= series.k_max:
            keys = [f"p{k}" for k in range(series.k_max + 1)]
        rows.append({"t": t, "values": dict(zip(keys, series.probabilities().tolist())),
                     "method": "closed_form",
                     "amplitudes": series.phi.view(float).reshape(-1, 2).tolist()})
    return rows


def _autocorrelator_rows(cfg: SweepConfig, ts: Iterable[float]) -> List[dict]:
    spec = cfg.spec()
    return [
        {"t": t, "values": {
            "autocorrelator": autocorrelator_t(spec, t),
            "alt_form": autocorrelator_alt_closed_form(spec, t),
        }, "method": "closed_form"}
        for t in ts
    ]


def _lanczos_rows(cfg: SweepConfig, ts: Iterable[float]) -> List[dict]:
    ts = cfg.t_grid().tolist()  # undrawn: only an edge leak or a phase overflow names a t
    Ks = chain_complexity(chain_states(cfg.spec(), ts)[1]).tolist()
    return [{"t": t, "values": {"K_chain": K}, "method": "lanczos_chain"} for t, K in zip(ts, Ks)]


# Row function of each sweep mode; it draws the grid times in order, or none.
_ROWS: Dict[str, Callable[[SweepConfig, Iterable[float]], List[dict]]] = {
    "complexity": _complexity_rows,
    "variance": _variance_rows,
    "distribution": _distribution_rows,
    "autocorrelator": _autocorrelator_rows,
    "lanczos": _lanczos_rows,
}


def run_sweep(cfg: SweepConfig) -> List[dict]:
    """One row per grid point, deterministic for a fixed config: the JSON
    object ``rows_to_json`` writes, except that a ``distribution`` row holds
    its own series, p0..p_{k_max} and k_max + 1 amplitudes, which both
    writers pad with zeros to the widest row of the sweep.

    A numerical failure, a float-range overflow included, raises
    :class:`KrylovGrowthError` carrying alpha, beta and the t it
    occurred at: the time the error names, else the last grid time the mode
    had drawn, if any (``lanczos`` draws none: a failure building its chain has no t).
    """
    rows_of = _ROWS.get(cfg.mode)
    if rows_of is None:
        raise ValueError(f"run_sweep does not handle mode {cfg.mode!r}; use verify()")
    drawn: List[float] = []

    def grid() -> Iterator[float]:
        for t in cfg.t_grid().tolist():
            drawn.append(t)
            yield t

    try:
        return rows_of(cfg, grid())
    except (KrylovGrowthError, OverflowError) as e:
        raise _attach(e, cfg, getattr(e, "t", drawn[-1] if drawn else None))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def rows_to_csv(rows: List[dict]) -> str:
    """A ``t,<key>,...`` header from row 0's values, then each row's t and
    values, looked up by those keys, at 12 significant digits.

    In a distribution table, whose rows carry amplitudes, each row holds
    its own series: the header is from the widest row (the first of them),
    and a row with n values, the first n keys, prints ``0``, the text of a
    zero probability, for each cell past them."""
    widest = rows[0] if rows else {"values": {}}
    if "amplitudes" in widest:
        widest = max(rows, key=lambda row: len(row["values"]))
    keys = list(widest["values"])
    width = len(keys)
    format_row = ",".join(["{:.12g}"] * (width + 1)).format
    lines = ["t," + ",".join(keys)]
    for row in rows:
        values = row["values"]
        n = len(values)
        if n < width:
            short = ",".join(["{:.12g}"] * (n + 1)).format
            lines.append(short(row["t"], *[values[k] for k in keys[:n]]) + ",0" * (width - n))
        else:
            lines.append(format_row(row["t"], *[values[k] for k in keys]))
    return "\n".join(lines) + "\n"


def _config_dict(cfg: SweepConfig) -> dict:
    # the fields are numbers and a string: ``asdict``'s deep copy adds nothing
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def rows_to_json(cfg: SweepConfig, rows: List[dict]) -> str:
    """``{"config": ..., "rows": [...]}`` on one line, as ``json.dumps``
    writes it; ``NaN``, ``Infinity`` and ``-0.0`` included. The rows must
    hold no reference cycle, as those of :func:`run_sweep` do not: the
    encoder does not look for one.

    A ``distribution`` sweep writes every row as wide as the widest: a row
    with n >= 1 values (every series holds phi_0), the first n keys of the
    widest, and n amplitudes, last in the row, is followed by 0.0 for each key past them and [0.0, 0.0] for
    each amplitude past them, as one zero-padded table of the sweep would
    hold them. Each row is encoded by the C encoder of ``json`` and its
    padding added as text; any other mode is one call to that encoder.
    """
    config = _config_dict(cfg)
    if cfg.mode != "distribution" or not rows:
        return json.dumps({"config": config, "rows": rows}, check_circular=False) + "\n"
    encode = json.JSONEncoder(check_circular=False).encode
    keys = list(max(rows, key=lambda row: len(row["values"]))["values"])
    items = [f", {encode(k)}: 0.0" for k in keys]
    starts = list(accumulate(map(len, items), initial=0))  # where key n's item starts
    values_pad = "".join(items)
    texts = []
    for row in rows:
        text, n = encode(row), len(row["values"])
        if n < len(keys):
            cut = text.rindex('}, "method": ')  # the end of the values
            text = (text[:cut] + values_pad[starts[n]:] + text[cut:-2]
                    + ", [0.0, 0.0]" * (len(keys) - n) + "]}")
        texts.append(text)
    return '{"config": ' + encode(config) + ', "rows": [' + ", ".join(texts) + "]}\n"


def _sweep_figure(mode: str, key: str, prefix: str, t_max: float, steps: int,
                  curves: List[tuple]) -> List[str]:
    """CSV lines of one ``mode`` sweep per (alpha, beta) curve on [0, t_max],
    its ``key`` value in a column headed ``prefix_alpha_<alpha>_beta_<beta>``."""
    sweeps = [run_sweep(SweepConfig(alpha=a, beta=b, t_max=t_max, steps=steps, mode=mode))
              for a, b in curves]
    lines = [",".join(["t"] + [f"{prefix}_alpha_{a:g}_beta_{b:g}" for a, b in curves])]
    for rows in zip(*sweeps):
        lines.append(",".join(_fmt(x) for x in [rows[0]["t"]] + [r["values"][key] for r in rows]))
    return lines


def figure_data(which: str, outdir: Path) -> Path:
    """Emit plot-ready CSV for one of the three reference figures; return its path.

    fig1: number-basis probabilities at alpha=0, beta=1, t=1 next to the
    h=1/4 lowest-weight profile (pairwise equal on even sites, shifted).
    fig2: K(t) for (alpha, beta) = (0.01, 1) and (1, 0.01) on t in [0, 5].
    fig3: autocorrelator for (1, 0), (0, 1), (1, 1) on t in [0, 3].
    fig2 and fig3 are one ``complexity`` or ``autocorrelator`` sweep per curve.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{which}.csv"
    if which == "fig1":
        series = phi_series(closed_form_params(LiouvillianSpec(0.0, 1.0), 1.0), tol=1e-12)
        sl2r, _ = sl2r_profile(0.25, 1.0, 1.0, tol=1e-12)
        kmax = 60
        probs = series.probabilities()
        sl2r_probs = sl2r ** 2
        lines = ["k,schrodinger_prob,sl2r_prob"]
        for k in range(kmax + 1):
            p1 = float(probs[k]) if k <= series.k_max else 0.0
            p2 = float(sl2r_probs[k]) if k < len(sl2r) else 0.0
            lines.append(f"{k},{_fmt(p1)},{_fmt(p2)}")
    elif which == "fig2":
        lines = _sweep_figure("complexity", "K", "K", 5.0, 101, [(0.01, 1.0), (1.0, 0.01)])
    elif which == "fig3":
        lines = _sweep_figure("autocorrelator", "autocorrelator", "auto", 3.0, 121,
                              [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    else:
        raise ValueError(f"unknown figure {which!r}; choose from {FIGURES}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _probe(cfg: SweepConfig, t: Optional[float], f: Callable, *args) -> tuple:
    """``(f(*args), {})``, or ``(None, {"error": message})`` where f fails
    numerically: a probe reports the failure instead of ending the run."""
    try:
        return f(*args), {}
    except (KrylovGrowthError, OverflowError) as e:
        return None, {"error": str(_attach(e, cfg, t))}


# The report sections of the authoritative checks; the report passes when each of them does.
_AUTHORITATIVE = ("oracle_vs_closed_form", "normalization", "complexity_closed_vs_direct",
                  "limit_recovery")


def verify(cfg: SweepConfig) -> dict:
    """Cross-method equivalence suite plus the documented-discrepancy probes.

    Authoritative checks (the report's ``pass`` is all of theirs; a failure
    is CLI exit 3): the oracle-vs-closed-form amplitude match at the grid
    points representable at cfg.dim, the closed-form normalization
    residual, the closed-form complexity vs direct summation, and the exact
    limit recovery.
    Grid times whose truncation estimate exceeds ``ORACLE_TOLERANCE`` are
    reported as truncation-skipped, not failed: :func:`oracle_states`
    estimates the 2-norm error of each state at cfg.dim by Duhamel's
    formula, from its one eigendecomposition (an estimate, measured at
    2.1 times the true error or more), and the report lists it under
    ``truncation_estimate`` with ``dims`` = [cfg.dim]. Each skipped time is
    logged at DEBUG to the ``krylovgrowth`` logger.
    Documented discrepancies (alternative variance form, alternative
    autocorrelator form, late-time exponent) are reported with their
    deviations and never affect ``pass`` or raise: a value a probe cannot
    compute is ``None``, with the reason under the probe's ``"error"``.
    """
    spec = cfg.spec()
    report: dict = {"config": _config_dict(cfg)}

    # oracle vs closed form on the representable grid points
    ts = cfg.t_grid().tolist()
    states, estimates = oracle_states(spec, ts, cfg.dim)
    estimates = estimates.tolist()
    max_dev = 0.0
    checked, skipped = [], []
    for t, psi, estimate in zip(ts, states, estimates):
        if estimate > ORACLE_TOLERANCE:
            _log.debug("verify skips t=%r: truncation estimate %.3e above %.1e", t, estimate,
                       ORACLE_TOLERANCE)
            skipped.append(t)
            continue
        max_dev = max(max_dev, amplitude_deviation(closed_form_params(spec, t), psi))
        checked.append(t)
    report["oracle_vs_closed_form"] = {
        "max_amplitude_deviation": max_dev,
        "checked_t": checked,
        "skipped_truncation_limited_t": skipped,
        "truncation_estimate": {"dims": [cfg.dim], "per_t": estimates},
        "tolerance": ORACLE_TOLERANCE,
        "pass": bool(checked) and max_dev <= ORACLE_TOLERANCE,
    }

    # normalization and complexity residuals over a parameter grid
    norm_dev = 0.0
    comp_dev = 0.0
    for av in np.linspace(0.0, 4.0, 6):
        for aw in np.linspace(0.0, 3.0, 6):
            p = DisplacementParams(v=complex(av), w=1j * aw)
            norm_dev = max(norm_dev, abs(mehler_normalization_check(p) - 1.0))
            comp_dev = max(
                comp_dev,
                abs(moment_n(p, 1, max_k=16384) - complexity_closed(p)),
            )
    report["normalization"] = {"max_residual": norm_dev, "tolerance": 1e-10, "pass": norm_dev <= 1e-10}
    report["complexity_closed_vs_direct"] = {
        "max_residual": comp_dev, "tolerance": 1e-8, "pass": comp_dev <= 1e-8,
    }

    # exact limit recovery
    lim_dev = 0.0
    for t in (0.5, 1.0, 2.0):
        hw = LiouvillianSpec(cfg.alpha if cfg.alpha else 1.0, 0.0)
        # first, so that a K beyond the float range fails by its own name
        K = schrodinger_complexity_t(hw, t)
        # alpha^2 t^2, with alpha t squared as one number where alpha^2 is
        # not a normal float, as the closed form takes it
        hw_K = hw.alpha ** 2 * t ** 2 if _square_is_normal(hw.alpha) else (hw.alpha * t) ** 2
        lim_dev = max(lim_dev, abs(K - hw_K))
        sl = LiouvillianSpec(0.0, cfg.beta if cfg.beta else 1.0)
        lim_dev = max(lim_dev, abs(schrodinger_complexity_t(sl, t) - math.sinh(sl.beta * t) ** 2))
    report["limit_recovery"] = {"max_residual": lim_dev, "tolerance": 0.0, "pass": lim_dev == 0.0}

    # documented discrepancies: reported, never asserted
    poisson_point = DisplacementParams(v=2j, w=0.0)
    m1, m2 = _moments(poisson_point, (1, 2))
    direct_var = m2 - m1 ** 2
    alt_var = variance_alt_closed_form(poisson_point)
    probe_spec = spec if spec.beta != 0 else LiouvillianSpec(1.0, 1.0)
    auto_rows = []
    for t in (0.1, 0.2, 0.4):
        auth, error = _probe(cfg, t, autocorrelator_t, probe_spec, t)
        alt, alt_error = _probe(cfg, t, autocorrelator_alt_closed_form, probe_spec, t)
        auto_rows.append({"t": t, "authoritative": auth, "alt_form": alt,
                          "deviation": None if error or alt_error else abs(auth - alt),
                          **(error or alt_error)})
    exponent, error = _probe(cfg, None, late_time_growth_exponent, probe_spec)
    report["documented_discrepancies"] = {
        "variance_alt_form_first_term": {
            "point": "v=2i, w=0",
            "direct_summation": direct_var,
            "alt_form": alt_var,
            "deviation": abs(direct_var - alt_var),
        },
        "autocorrelator_alt_form": auto_rows,
        "late_time_exponent": {
            "measured_over_t_4_to_6": exponent,
            "candidate_beta": probe_spec.beta,
            "candidate_two_beta": 2.0 * probe_spec.beta,
            **error,
        },
    }
    report["pass"] = all(report[name]["pass"] for name in _AUTHORITATIVE)
    return report


def _load_config_file(path: Path) -> Dict[str, str]:
    """``key = value`` lines. A comment runs from a ``#`` at the start of a
    line or after whitespace, so a value such as ``rows#1.csv`` keeps its ``#``."""
    values: Dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    return values


def _config_namespace(path: Path) -> argparse.Namespace:
    """Each ``key=value`` of the file as flag ``--key`` would set it, converted
    and checked by its own type and choices; a flag parsed over it wins."""
    namespace = argparse.Namespace()
    for key, val in _load_config_file(path).items():
        action = _PARSER._option_string_actions.get(f"--{key}")
        if action is None or key in ("config", "help"):
            raise ValueError(f"unknown config key {key!r}")
        value = action.type(val) if action.type else val
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{key} must be one of {action.choices}, got {value!r}")
        setattr(namespace, action.dest, value)
    return namespace


def _build_parser() -> argparse.ArgumentParser:
    d = SweepConfig()
    parser = argparse.ArgumentParser(
        prog="krylov-growth",
        description="Operator-growth complexity sweeps for the linear-plus-two-photon generator",
    )
    add = parser.add_argument
    add("--alpha", type=float, default=d.alpha, help="linear coefficient")
    add("--beta", type=float, default=d.beta, help="two-photon coefficient")
    add("--tmin", dest="t_min", metavar="TMIN", type=float, default=d.t_min,
        help=f"grid start (default {d.t_min:g})")
    add("--tmax", dest="t_max", metavar="TMAX", type=float, default=d.t_max,
        help=f"grid end (default {d.t_max:g})")
    add("--steps", type=int, default=d.steps, help=f"grid points (default {d.steps})")
    add("--dim", type=int, default=d.dim,
        help=f"Fock truncation of the dense oracle (verify; default {d.dim})")
    add("--tol", type=float, default=d.tol, help=f"series tolerance (default {d.tol:g})")
    add("--mode", choices=MODES, default=d.mode, help="observable to sweep")
    add("--format", choices=FORMATS, default="csv")
    add("--out", type=str,
        help="output file (sweeps/verify) or directory (figures); default stdout")
    add("--config", type=str, help="key=value config file; flags override")
    add("--figure", choices=FIGURES,
        help="emit the data behind one reference figure instead of sweeping")
    return parser


_PARSER = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.config:
            args = _PARSER.parse_args(argv, _config_namespace(Path(args.config)))
        if args.figure is not None:
            print(figure_data(args.figure, Path(args.out or ".")))
            return 0
        cfg = SweepConfig(**{f.name: getattr(args, f.name) for f in fields(SweepConfig)})
        if cfg.mode == "verify":
            try:
                report = verify(cfg)
            except (KrylovGrowthError, OverflowError) as e:
                raise _attach(e, cfg, getattr(e, "t", None))
            text = json.dumps(report, indent=2) + "\n"
        else:
            rows = run_sweep(cfg)
            text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(cfg, rows)
        if args.out:
            Path(args.out).write_text(text)
    except KrylovGrowthError as exc:
        _log.debug("%s ends the run: %s", type(exc).__name__, exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    # an --out that cannot be written, and a grid or truncation too large
    # for numpy to allocate or index, included
    except (ValueError, OSError, MemoryError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1

    if not args.out:
        sys.stdout.write(text)
    if cfg.mode != "verify":
        return 0
    for name in _AUTHORITATIVE:
        print(f"{name}: {'PASS' if report[name]['pass'] else 'FAIL'}", file=sys.stderr)
    return 0 if report["pass"] else 3


if __name__ == "__main__":
    sys.exit(main())
