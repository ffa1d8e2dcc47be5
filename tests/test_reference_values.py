"""The closed-form CLI columns against a 50-digit ``mpmath`` reference.

Points are derandomized over the closed-sweep region: alpha, beta ~ U(0, 1.5)
and t ~ U(-2, 2) with alpha |t| <= 2.5 and beta |t| <= 2, one in ten with
alpha = 0 and one in ten with beta = 0. The reference takes each float
input exactly and evaluates the paper's expressions at (v, w); the variance
expression is itself anchored to a 50-digit direct summation of
sum k^2 |phi_k|^2 - K^2. Each column is held to a bound on its relative
error, not to its printed digits: a value within one ulp of a rounding
boundary can print either way.
"""

import json
import random

import pytest

from krylovgrowth.algebra import LiouvillianSpec
from krylovgrowth.cli import main
from krylovgrowth.coherent import variance_t

mp = pytest.importorskip("mpmath")

EPS = 2.0 ** -52


def _v_w(alpha, beta, t):
    """(v, w) of the closed-form path at 50 digits, from the exact float inputs."""
    a, b, t = mp.mpf(alpha), mp.mpf(beta), mp.mpf(t)
    if b == 0 or t == 0:
        return 1j * a * t, mp.mpc(0)
    return (a / b) * (1 - mp.cosh(b * t)) + 1j * (a / b) * mp.sinh(b * t), 1j * b * t


def reference(alpha, beta, t):
    """K, sigma2 and |phi_0|^2 at 50 digits: |v|^2 + sinh^2|w|, the paper's
    variance |v|^2 cosh 2|w| + sinh|w| cosh|w| (sinh 2|w| - Re(conj(v)^2 w
    + v^2 conj(w)) / |w|), and exp(-|v|^2 - Re(v^2 conj(w)) tanh|w| / |w|)
    / cosh|w|; at w = 0, |v|^2, |v|^2 and exp(-|v|^2)."""
    with mp.workdps(50):
        v, w = _v_w(alpha, beta, t)
        v2, u = abs(v) ** 2, abs(w)
        if u == 0:
            return v2, v2, mp.exp(-v2)
        cross = mp.re(mp.conj(v) ** 2 * w + v ** 2 * mp.conj(w)) / u
        return (v2 + mp.sinh(u) ** 2,
                v2 * mp.cosh(2 * u) + mp.sinh(u) * mp.cosh(u) * (mp.sinh(2 * u) - cross),
                mp.exp(-v2 - mp.re(v * v * mp.conj(w)) * mp.tanh(u) / u) / mp.cosh(u))


def direct_variance(alpha, beta, t):
    """sum k^2 |phi_k|^2 - (sum k |phi_k|^2)^2 at 50 digits, over the
    amplitude recurrence, until both the missing probability and the last
    k^2-weighted term are below 1e-40."""
    with mp.workdps(50):
        v, w = _v_w(alpha, beta, t)
        u = abs(w)
        if u:
            mubar, ch, sh = mp.conj(w) / u, mp.cosh(u), mp.sinh(u)
            cur = mp.exp(-abs(v) ** 2 / 2 - v * v * mubar * mp.tanh(u) / 2) / mp.sqrt(ch)
            mix, hop = mp.conj(v) * ch + v * mubar * sh, mubar * sh
        else:
            ch, cur, mix, hop = 1, mp.exp(-abs(v) ** 2 / 2), mp.conj(v), 0
        prev, cut = mp.mpc(0), mp.mpf(10) ** -40
        total = m1 = m2 = mp.mpf(0)
        k = 0
        while True:
            p = abs(cur) ** 2
            total, m1, m2 = total + p, m1 + k * p, m2 + k * k * p
            if k > 10 and 1 - total < cut and k * k * p < cut:
                return m2 - m1 * m1
            prev, cur = cur, -(mp.sqrt(k) * hop * prev + mix * cur) / (mp.sqrt(k + 1) * ch)
            k += 1


def _points(n=300, seed=20261022):
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        a, b, t = rng.uniform(0, 1.5), rng.uniform(0, 1.5), rng.uniform(-2, 2)
        stratum = rng.random()
        if stratum < 0.1:
            a = 0.0
        elif stratum < 0.2:
            b = 0.0
        if a * abs(t) <= 2.5 and b * abs(t) <= 2:
            points.append((a, b, t))
    return points


POINTS = _points()


@pytest.fixture(scope="module")
def references():
    return [reference(*point) for point in POINTS]


def _row(capsys, mode, alpha, beta, t):
    """The one JSON row of ``mode`` at (alpha, beta, t): floats as repr writes them."""
    assert main(["--mode", mode, "--format", "json", "--alpha", repr(alpha), "--beta",
                 repr(beta), f"--tmin={t!r}", f"--tmax={t!r}", "--steps", "1"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["t"] == t
    return row["values"]


def _rel(got, want):
    return float(abs(got - want) / want) if want else abs(got)


def test_points_cover_the_strata():
    assert sum(a == 0 for a, _, _ in POINTS) >= 20 and sum(b == 0 for _, b, _ in POINTS) >= 20
    assert sum(t < 0 for _, _, t in POINTS) >= 100


def test_variance_and_autocorrelator_columns(references, capsys):
    # measured worst on these points: K 2.3, sigma2 3.0 and the
    # autocorrelator 3.1 (1 + |ln A|) ulps; exp turns an absolute error of
    # its argument into a relative error of A
    for (alpha, beta, t), (K, sigma2, auto) in zip(POINTS, references):
        where = f"alpha={alpha!r}, beta={beta!r}, t={t!r}"
        values = _row(capsys, "variance", alpha, beta, t)
        assert _rel(values["K"], K) <= 8 * EPS, where
        assert _rel(values["sigma2"], sigma2) <= 8 * EPS, where
        A = _row(capsys, "autocorrelator", alpha, beta, t)["autocorrelator"]
        assert _rel(A, auto) <= (4 - 4 * float(mp.log(auto))) * EPS, where


def test_variance_expression_is_the_direct_sum(references):
    # every 15th point: 20 of them, alpha = 0 and beta = 0 among them
    for (alpha, beta, t), (_, sigma2, _) in list(zip(POINTS, references))[::15]:
        assert _rel(direct_variance(alpha, beta, t), sigma2) <= 1e-30, (alpha, beta, t)


def test_variance_t_far_past_the_sweep_region():
    # beta t up to 150, where sigma2 reaches 1e260. Rounding beta t to a
    # float moves it by up to half an ulp, and sigma2 ~ e^{4 beta t}
    # amplifies that by 4 |beta t|: the bound is (2 |beta t| + 8) ulps
    # (measured: at most 1.9 |beta t| ulps on 300 such points)
    rng = random.Random(150)
    for _ in range(200):
        t = rng.uniform(0.5, 2.0)
        beta, alpha = rng.uniform(2.0, 150.0) / t, rng.choice([0.0, rng.uniform(0.0, 150.0)])
        _, sigma2, _ = reference(alpha, beta, t)
        got = variance_t(LiouvillianSpec(alpha, beta), t)
        assert _rel(got, sigma2) <= (2 * abs(beta * t) + 8) * EPS, (alpha, beta, t)
