"""Command-line front end: parameter sweeps, figure data, verification.

One entry point (``krylov-growth``) drives the library over a time grid.
Grid points are evaluated independently in grid order, so identical
configurations produce byte-identical output files.

Exit codes: 0 success, 1 invalid configuration (a non-finite alpha,
beta, time or tolerance included, an ``--out`` file that cannot be
written, and a ``--steps`` or ``--dim`` too large to allocate or index),
2 numerical failure (truncation overflow, chain edge leak, non-convergent
series, a result beyond the float range; the message carries the
offending alpha, beta, t, dim), 3 authoritative verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from .algebra import LiouvillianSpec, build_liouvillian
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
from .errors import KrylovGrowthError, TruncationOverflow
from .fock import FockVector, TruncationConfig, evolve_state
from .lanczos import chain_complexity, lanczos_tridiagonalize, propagate_chain

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
    beta, dim and (when known) t attached. A float-range overflow becomes a
    :class:`KrylovGrowthError` here, and only here."""
    if isinstance(err, OverflowError):
        err = KrylovGrowthError(f"result beyond the float range: {err}")
    err.context.update(alpha=cfg.alpha, beta=cfg.beta, dim=cfg.dim)
    if t is not None:
        err.context["t"] = t
    return err


# A sweep row is the JSON object ``rows_to_json`` writes: {"t", "values",
# "method"}, and for ``distribution`` the amplitudes as [re, im] pairs.
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
    series = [(t, phi_series(closed_form_params(spec, t), tol=cfg.tol)) for t in ts]
    width = max(s.k_max + 1 for _, s in series)
    phi = np.zeros((len(series), width), dtype=complex)  # zero-padded to the widest row
    for row, (_, s) in zip(phi, series):
        row[: s.k_max + 1] = s.phi
    keys = [f"p{k}" for k in range(width)]
    pairs = phi.view(float).reshape(len(series), width, 2).tolist()
    return [{"t": t, "values": dict(zip(keys, probs)), "method": "closed_form", "amplitudes": amps}
            for (t, _), probs, amps in zip(series, (np.abs(phi) ** 2).tolist(), pairs)]


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
    # the chain is built before any grid time is drawn: its failures have no t
    L = build_liouvillian(cfg.spec(), TruncationConfig(dim=cfg.dim))
    chain = lanczos_tridiagonalize(L, FockVector.basis_state(cfg.dim, 0), min(cfg.dim // 2, 128))
    ts = list(ts)
    Ks = chain_complexity(propagate_chain(chain, ts)).tolist()
    return [{"t": t, "values": {"K_chain": K}, "method": "lanczos_chain"} for t, K in zip(ts, Ks)]


# Row function of each sweep mode; it draws the grid times in order.
_ROWS: Dict[str, Callable[[SweepConfig, Iterable[float]], List[dict]]] = {
    "complexity": _complexity_rows,
    "variance": _variance_rows,
    "distribution": _distribution_rows,
    "autocorrelator": _autocorrelator_rows,
    "lanczos": _lanczos_rows,
}


def run_sweep(cfg: SweepConfig) -> List[dict]:
    """One row per grid point, the JSON object ``rows_to_json`` writes;
    deterministic for a fixed config.

    A numerical failure, a float-range overflow included, raises
    :class:`KrylovGrowthError` carrying alpha, beta, dim and the t it
    occurred at: the time the error names, else the last grid time the mode
    had drawn. A failure before the mode drew any grid time (the Lanczos
    chain construction) carries no t.
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
    values, looked up by those keys, at 12 significant digits."""
    keys = list(rows[0]["values"]) if rows else []
    format_row = ",".join(["{:.12g}"] * (len(keys) + 1)).format
    lines = ["t," + ",".join(keys)]
    for row in rows:
        values = row["values"]
        lines.append(format_row(row["t"], *[values[k] for k in keys]))
    return "\n".join(lines) + "\n"


def _config_dict(cfg: SweepConfig) -> dict:
    # the fields are numbers and a string: ``asdict``'s deep copy adds nothing
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def rows_to_json(cfg: SweepConfig, rows: List[dict]) -> str:
    """``{"config": ..., "rows": [...]}`` on one line, from one call to the
    C encoder of ``json``; ``NaN``, ``Infinity`` and ``-0.0`` are written
    as ``json.dumps`` writes them. The rows must hold no reference cycle,
    as those of :func:`run_sweep` do not: the encoder does not look for one."""
    return json.dumps({"config": _config_dict(cfg), "rows": rows}, check_circular=False) + "\n"


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
    Grid times whose evolved state trips the guard band at cfg.dim are
    reported as truncation-skipped, not failed. Documented discrepancies
    (alternative variance form, alternative autocorrelator form, late-time
    exponent) are reported with their deviations and never affect ``pass``.
    """
    spec = cfg.spec()
    report: dict = {"config": _config_dict(cfg)}

    # oracle vs closed form on the representable grid points
    L = build_liouvillian(spec, TruncationConfig(dim=cfg.dim))
    seed = FockVector.basis_state(cfg.dim, 0)
    max_dev = 0.0
    checked, skipped = [], []
    for t in cfg.t_grid().tolist():
        try:
            psi = evolve_state(L, t, seed, cfg.tol)
        except TruncationOverflow:
            skipped.append(t)
            continue
        max_dev = max(max_dev, amplitude_deviation(closed_form_params(spec, t), psi.amplitudes))
        checked.append(t)
    report["oracle_vs_closed_form"] = {
        "max_amplitude_deviation": max_dev,
        "checked_t": checked,
        "skipped_truncation_limited_t": skipped,
        "tolerance": 1e-8,
        "pass": bool(checked) and max_dev <= 1e-8,
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
        # alpha^2 t^2, with alpha t squared as one number where alpha^2 is
        # not a normal float, as the closed form takes it
        hw_K = hw.alpha ** 2 * t ** 2 if _square_is_normal(hw.alpha) else (hw.alpha * t) ** 2
        lim_dev = max(lim_dev, abs(schrodinger_complexity_t(hw, t) - hw_K))
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
        auth = autocorrelator_t(probe_spec, t)
        alt = autocorrelator_alt_closed_form(probe_spec, t)
        auto_rows.append({"t": t, "authoritative": auth, "alt_form": alt,
                          "deviation": abs(auth - alt)})
    exponent = late_time_growth_exponent(probe_spec)
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


def _set_config_defaults(parser: argparse.ArgumentParser, path: Path) -> None:
    """Each ``key=value`` of the file becomes the default of flag ``--key``,
    converted and checked by that flag's own type and choices."""
    for key, val in _load_config_file(path).items():
        action = parser._option_string_actions.get(f"--{key}")
        if action is None or key in ("config", "help"):
            raise ValueError(f"unknown config key {key!r}")
        value = action.type(val) if action.type else val
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{key} must be one of {action.choices}, got {value!r}")
        parser.set_defaults(**{action.dest: value})


def _build_parser() -> argparse.ArgumentParser:
    d = SweepConfig()
    parser = argparse.ArgumentParser(
        prog="krylov-growth",
        description="Operator-growth complexity sweeps for the linear-plus-two-photon generator",
    )
    # The flags go straight into the parser's own options group, where
    # ``parser.add_argument`` would put them too, minus the help formatter
    # it builds per flag only to check metavars that are plain strings here.
    add = parser._optionals.add_argument
    add("--alpha", type=float, default=d.alpha, help="linear coefficient")
    add("--beta", type=float, default=d.beta, help="two-photon coefficient")
    add("--tmin", dest="t_min", metavar="TMIN", type=float, default=d.t_min,
        help=f"grid start (default {d.t_min:g})")
    add("--tmax", dest="t_max", metavar="TMAX", type=float, default=d.t_max,
        help=f"grid end (default {d.t_max:g})")
    add("--steps", type=int, default=d.steps, help=f"grid points (default {d.steps})")
    add("--dim", type=int, default=d.dim, help=f"Fock truncation (default {d.dim})")
    add("--tol", type=float, default=d.tol, help=f"series/guard tolerance (default {d.tol:g})")
    add("--mode", choices=MODES, default=d.mode, help="observable to sweep")
    add("--format", choices=FORMATS, default="csv")
    add("--out", type=str,
        help="output file (sweeps/verify) or directory (figures); default stdout")
    add("--config", type=str, help="key=value config file; flags override")
    add("--figure", choices=FIGURES,
        help="emit the data behind one reference figure instead of sweeping")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.config:
            _set_config_defaults(parser, Path(args.config))
            args = parser.parse_args(argv)
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
