"""Workload schedules: the ``krylov-growth`` argument lists a benchmark run sends.

A schedule is an endless sequence of argv lists made from the seed alone.
Invocation kinds (mode x format x steps, or dim) repeat in a fixed cycle
that interleaves slow and fast kinds. Each closed-form mode, or the whole
workload, draws (beta, t_max, alpha) from its own three-dimensional
Kronecker (generalised golden ratio) sequence, shifted by a random offset
taken from the seed, and keeps the points inside the region where the
program succeeds. Every prefix of such a sequence covers that region within
about one point of the expected counts, so how many invocations land on
slow inputs barely depends on the seed or on where the time limit cuts
the run.

Every operation of a workload succeeds on the current code: inputs outside
the region below fail for reasons the workload does not measure, and a
benchmark whose runs fail cannot compare two versions. Those failures are
not hidden: ``KNOWN_FAILURES`` holds one input of each kind, which every run
sends after the measurement and reports apart from it.

closed-sweep
    ``complexity``, ``variance`` and ``autocorrelator`` in CSV and JSON
    with steps in {41, 101}, and ``distribution`` in JSON with 41 steps;
    alpha and beta ~ U(0, 1.5), t_max ~ U(0.5, 5) (the t range of README
    ``fig2``), restricted to alpha*t_max <= 2.5 and beta*t_max <= 2.0
    (45 % of that box). The work is the amplitude recurrence (``coherent``)
    and serialising wide distribution rows (``cli``); ``algebra``, ``fock``
    and ``lanczos`` are bypassed. From beta*t about 2.6 the series needs
    more than its cap of 4096 terms at tol 1e-10 (``NonConvergent``, exit 2,
    in ``variance`` and ``distribution``); from about 3.2 ``phi_zero``
    raises an uncaught ``OverflowError`` for large alpha, and from about 6
    for any alpha (in ``autocorrelator`` too). The region is narrower than
    the failure-free one so that the longest series in it, 1024 terms, is
    common: with beta*t_max <= 2.5 alone, a run met the 4096-term corner
    (alpha*t_max of 5 or more) zero to a few times, and over four seeds the
    spread of ``peak_rss_mb`` was 0.43 (126 or 196 MB) and of
    ``points_per_s`` 0.34. The two cheap modes have twice the weight of the
    two expensive ones, so the median sits inside the cheap cluster instead
    of on the gap between clusters: with equal weights, over 192
    invocations of each of two seeds, the 45th percentile of invocation
    time was 0.0028 and 0.0031 s and the 55th 0.023 and 0.018 s, so a shift
    of a few invocations would move the median several-fold.
lanczos-chain
    ``--mode lanczos`` with dim cycling through 512, 768, 1152, t_max ~
    U(0.5, 2.5), alpha and beta ~ U(0.25, 1.5), restricted to
    alpha*t_max <= 2.4 and beta*t_max <= 1.35 (56 % of that box).
    Each invocation builds one large dense L (``algebra``, with
    ``fock.matrix_bandwidth`` scans) and runs 128 Lanczos steps by matvec
    (``lanczos``) without diagonalising L. Past that region the 128-site
    chain leaks at its edge (``EdgeLeak``, exit 2), for example at
    alpha*t = 2.25, beta*t = 1.5 or alpha*t = 0.7, beta*t = 1.72.

A ``--mode verify`` workload (default grid, dim 256 and 512, the ``fock``
eigendecomposition path) was measured and left out: on a 2-core VM whose
speed swings by half in phases of seconds, its median invocation time moved
by a quarter between runs, and a run of about 30 invocations, most of them
exit 3, holds too few exit-0 ones for a steady ``points_per_s``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

# One cycle: every (format, steps) pair, each with the cheap modes twice and
# the expensive modes once, so expensive invocations are spread evenly.
# ``distribution`` always writes JSON at 41 steps: the widest JSON output
# sets the run's peak memory, and only a stratum sampled in every cycle is
# hit in every run.
_CLOSED_CYCLE = [
    (mode, "json", 41) if mode == "distribution" else (mode, fmt, steps)
    for fmt, steps in (("csv", 41), ("json", 101), ("json", 41), ("csv", 101))
    for mode in ("complexity", "variance", "autocorrelator",
                 "complexity", "distribution", "autocorrelator")
]
_LANCZOS_CYCLE = [512, 768, 1152]

WORKLOADS = ("closed-sweep", "lanczos-chain")
CYCLES = {"closed-sweep": _CLOSED_CYCLE, "lanczos-chain": _LANCZOS_CYCLE}

# The region where every invocation succeeds (see the module docstring).
CLOSED_MAX_AT = 2.5
CLOSED_MAX_BT = 2.0
LANCZOS_MAX_AT = 2.4
LANCZOS_MAX_BT = 1.35

# One input per failure kind known on the current code, outside the region
# the workload draws from; sent after the measurement and reported apart.
KNOWN_FAILURES = {
    "closed-sweep": [
        ("NonConvergent", ["--mode", "distribution", "--format", "json", "--steps", "41",
                           "--tmax", "3.5", "--alpha", "0.5", "--beta", "1.0"]),
        ("OverflowError", ["--mode", "autocorrelator", "--tmax", "4.8",
                           "--alpha", "0.2", "--beta", "1.4"]),
    ],
    "lanczos-chain": [
        ("EdgeLeak", ["--mode", "lanczos", "--dim", "512", "--tmax", "1.5",
                      "--alpha", "1.5", "--beta", "1.0"]),
    ],
}

# Which layers each workload calls, for the warm-up that set-up time includes.
LAYERS_USED = {
    "closed-sweep": ("cli", "coherent"),
    "lanczos-chain": ("cli", "algebra", "lanczos"),
}


def kronecker_steps(d: int) -> List[float]:
    """Per-axis steps 1/phi_d**i of the d-dimensional Kronecker sequence,
    phi_d being the real root of x**(d+1) = x + 1 (the golden ratio at d=1)."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return [phi ** -(i + 1) for i in range(d)]


class _Stratum:
    """Randomly shifted Kronecker points in [0, 1)**d."""

    def __init__(self, rng: random.Random, d: int):
        self.shift = [rng.random() for _ in range(d)]
        self.steps = kronecker_steps(d)
        self.k = 0

    def draw(self) -> List[float]:
        self.k += 1
        return [(s + self.k * g) % 1.0 for s, g in zip(self.shift, self.steps)]


def _num(x: float) -> str:
    return f"{x:.6f}"


def schedule(workload: str, seed: int) -> Iterator[Tuple[str, List[str]]]:
    """Yield (stratum label, argv) forever; the same seed gives the same list.

    No (alpha, beta, dim) tuple repeats within one schedule, so a cache kept
    across invocations, which a real one-process-per-run CLI user never
    has, gains nothing.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES[workload]
    # One sequence per closed-form mode, and one for all dims: within a mode,
    # cost depends mostly on beta*t_max, and every extra sequence adds its
    # own rounding error to how many invocations land on slow inputs.
    strata = {}
    seen = set()
    while True:
        for key in cycle:
            stratum_key = key[0] if workload == "closed-sweep" else None
            if stratum_key not in strata:
                strata[stratum_key] = _Stratum(rng, 3)
            stratum = strata[stratum_key]
            while True:
                u = stratum.draw()
                if workload == "closed-sweep":
                    mode, fmt, steps = key
                    beta, tmax, alpha, dim = 1.5 * u[0], 0.5 + 4.5 * u[1], 1.5 * u[2], None
                    inside = alpha * tmax <= CLOSED_MAX_AT and beta * tmax <= CLOSED_MAX_BT
                    label = f"{mode}/{fmt}/{steps}"
                    argv = ["--mode", mode, "--format", fmt, "--steps", str(steps),
                            "--tmax", _num(tmax)]
                else:
                    beta, tmax, alpha, dim = (0.25 + 1.25 * u[0], 0.5 + 2.0 * u[1],
                                              0.25 + 1.25 * u[2], key)
                    inside = alpha * tmax <= LANCZOS_MAX_AT and beta * tmax <= LANCZOS_MAX_BT
                    label = f"lanczos/{dim}"
                    argv = ["--mode", "lanczos", "--dim", str(dim), "--tmax", _num(tmax)]
                ident = (_num(alpha), _num(beta), dim)
                if inside and ident not in seen:
                    break
            seen.add(ident)
            yield label, argv + ["--alpha", ident[0], "--beta", ident[1]]
