"""Self-tests of the benchmark harness: ``python3 -m pytest bench``."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _take(workload, seed, n):
    return list(itertools.islice(workloads.schedule(workload, seed), n))


def _flags(argv):
    return dict(zip(argv[::2], argv[1::2]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert _take(workload, 7, 60) == _take(workload, 7, 60)
    assert _take(workload, 7, 60) != _take(workload, 8, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_repeated_alpha_beta_dim(workload):
    keys = [(f["--alpha"], f["--beta"], f.get("--dim"))
            for f in (_flags(argv) for _, argv in _take(workload, 3, 2000))]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("workload,lo,hi,tmax", [
    ("closed-sweep", 0.0, 1.5, (0.5, 5.0)),
    ("lanczos-chain", 0.25, 1.5, (0.5, 2.5)),
])
def test_inputs_fill_the_region_where_the_program_succeeds(workload, lo, hi, tmax):
    flags = [_flags(argv) for _, argv in _take(workload, 5, 480)]
    alpha, beta, t = ([float(f[key]) for f in flags] for key in ("--alpha", "--beta", "--tmax"))
    assert lo <= min(alpha + beta) and max(alpha + beta) <= hi
    assert tmax[0] <= min(t) and max(t) <= tmax[1]
    bt = [b * x for b, x in zip(beta, t)]
    if workload == "closed-sweep":
        caps = [(bt, workloads.CLOSED_MAX_BT)]
    else:
        at = [a * x for a, x in zip(alpha, t)]
        caps = [(bt, workloads.LANCZOS_MAX_BT), (at, workloads.LANCZOS_MAX_AT)]
    for products, cap in caps:
        # inside the region, and up to its edge
        assert max(products) <= cap * (1 + 1e-5)
        assert sum(p > 0.9 * cap for p in products) >= 0.02 * len(products)


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    traced_leaf = tracer.wrap("fock.leaf", leaf)
    traced_outer = tracer.wrap("cli.outer", lambda: traced_leaf() + traced_leaf())
    assert traced_outer() == 2
    # outer spans ticks 0..5, the leaves 1..2 and 3..4
    agg = tracing.aggregate(tracer.spans)
    assert agg["cli.outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert agg["fock.leaf"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_tracer_counts_calls_bound_by_from_import_and_missing_functions():
    from krylovgrowth import cli

    tracer = tracing.Tracer()
    originals = {name: getattr(cli, name) for name in ("run_sweep", "schrodinger_complexity_t")}
    tracing.LAYERS["cli"] += ("removed_function",)
    try:
        tracer.install()
        cli.run_sweep(cli.SweepConfig(steps=5))
        agg = tracing.aggregate(tracer.spans)
        values = tracing.layer_metrics(agg, tracer.counts, 1.0)
    finally:
        tracing.LAYERS["cli"] = tracing.LAYERS["cli"][:-1]
        tracer.uninstall()
    assert agg["coherent.schrodinger_complexity_t"]["calls"] == 5
    assert agg["cli.run_sweep"]["calls"] == 1
    assert "cli.removed_function" in tracer.missing
    assert values["cli.removed_function.calls"] == 0
    assert {name: getattr(cli, name) for name in originals} == originals


def test_tail_rank_is_p90_with_ten_samples_beyond():
    assert run.tail_rank(1) == 1
    assert run.tail_rank(19) == 10  # the median: no higher rank has 10 beyond
    assert run.tail_rank(20) == 10
    assert run.tail_rank(50) == 40
    assert run.tail_rank(1000) == 900
    for n in range(20, 2000):
        rank = run.tail_rank(n)
        assert n - rank >= 10 and rank >= n / 2 and rank >= min(0.9 * n, n - 10)


def test_checks_flag_a_wrong_answer(tmp_path):
    import checks
    from krylovgrowth import cli

    argv = ["--mode", "complexity", "--steps", "5", "--alpha", "0.7", "--beta", "1.1"]
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert checks.check(argv, 0, False, out) == ("ok", 5, "")
    lines = out.read_text().splitlines()
    t, k = lines[3].split(",")
    lines[3] = f"{t},{float(k) * (1 + 1e-6)!r}"
    out.write_text("\n".join(lines) + "\n")
    assert checks.check(argv, 0, False, out)[0] == "wrong"


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_scaled_metrics_read_as_if_the_reference_took_its_nominal_time():
    slow = 2 * run.REF_NOMINAL_S  # a host at half the reference speed
    records = [{"dt": dt, "ref": ref, "rows": 41, "kind": "ok"}
               for dt, ref in ((1.0, slow), (3.0, None), (2.0, slow))]
    metrics = run.end_to_end(records, [0.5], 1024)
    assert metrics["op_p50_s"] == 2.0
    assert metrics["op_p50_ref_s"] == pytest.approx(1.0)
    assert metrics["op_tail_ref_s"] == pytest.approx(metrics["op_tail_s"] / 2)
    assert metrics["points_per_ref_s"] == pytest.approx(2 * metrics["points_per_s"])
