"""End-to-end and per-layer benchmark of the ``krylov-growth`` CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload closed-sweep --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py`` for the ranges and why they were chosen):
``closed-sweep``, ``lanczos-chain``.

``--trace 0`` measures the end-to-end metrics. Set-up is timed in fresh
interpreters: import ``krylovgrowth.cli`` from ``src/`` plus one small
warm-up call into each layer the workload uses. The first of them serves as
a single client in a closed loop: it calls ``cli.main(argv)`` once per
generated argument list, writing through ``--out`` to a file under
``.bench_work/``, until ``--seconds`` have passed. The other set-up samples
are taken at even intervals during the loop, between invocations, so that
they see the same phases of host speed as the invocations. This process
checks each output by an independent route (``checks.py``) while the worker
waits, outside the timed window.

End-to-end metrics, over the invocations of complete schedule cycles:
``setup_s`` is the median of the set-up samples; ``op_p50_s`` the median
invocation time; ``op_tail_s`` the 90th percentile of invocation times
(see :func:`tail_rank`); ``points_per_s`` the grid rows of invocations that
exited 0 and passed their check per second of CLI time; and ``peak_rss_mb``
the worker's ``ru_maxrss``.

The three invocation metrics are printed as measured and reported scaled to
a fixed host speed (``op_p50_ref_s``, ``op_tail_ref_s``,
``points_per_ref_s``). On a 2-vCPU VM that shares its host, the speed of
everything, Python and BLAS alike, drifts by a fifth from one minute to the
next, and that drift, not the program, set most of the run-to-run spread.
So at most every ``REF_EVERY_S`` the worker also times a fixed piece of
benchmark work right after an invocation (``worker.Reference``); the scaled
metrics are the measured ones as if that work had taken ``REF_NOMINAL_S``.
A change to the program moves them as it moves the measured times. In
10-seed runs of 55 s on such a VM, scaling cut the spread (interquartile
range over median) of the three from 0.16, 0.11, 0.14 to 0.03, 0.02, 0.04
on lanczos-chain and from 0.08, 0.08, 0.10 to 0.05, 0.04, 0.04 on
closed-sweep.

Every invocation of a workload succeeds on the current code, so ``failed``
counts regressions; inputs that are known to fail
(``workloads.KNOWN_FAILURES``) are sent to a fresh worker after the
measurement, and their outcomes are printed apart from the result.

``--trace 1`` starts two fresh workers, one of them with its layers wrapped
by ``tracing.py``, sends each argument list to both in turn, and reports the
per-layer metrics; ``trace_overhead`` is the ratio of their CLI times.
Spans are written to ``.bench_work/trace-<workload>.jsonl``.

The BLAS thread count is pinned to 1 for every worker (a multithreaded first
``eigh`` sometimes stalls for about a second on a 2-core machine), and the
environment is printed with the result. The last line of standard output is
the JSON result; a wrong answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
# The worker times its reference work after an invocation at most this
# often, and the scaled metrics read as if that work took REF_NOMINAL_S
# (about its time on a 2-vCPU x86_64 VM with Python 3.11 and numpy 2.4).
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.005
DEADLINE_S = 170.0
# The closed loop stops this long before the deadline, leaving time for
# the last call and the worker's exit.
LOOP_MARGIN_S = 25.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ref_s", "s"),
    ("op_tail_ref_s", "s"),
    ("points_per_ref_s", "points/s"),
    ("peak_rss_mb", "MB"),
)

# Rows of the ROADMAP baseline table (2 cores, single runs, before this
# benchmark existed) that the traced per-call times are printed next to.
ROADMAP_BASELINE = (
    ("algebra.build_liouvillian", "256", 0.083, "dense complex matmuls"),
    ("algebra.build_liouvillian", "1152", 0.372, "dense complex matmuls"),
    ("fock.evolve_state", "512", 0.191, ""),
    ("fock.evolve_state", "1152", 0.814, ""),
    ("lanczos.lanczos_tridiagonalize", "256", 0.031, "m=120; the CLI uses m=128"),
    ("lanczos.lanczos_tridiagonalize", "1152", 0.126, "m=120; the CLI uses m=128"),
    ("coherent.phi_series", "1024", 0.004, "k_max 1024, tol 1e-12"),
    ("coherent.phi_series", "8192", 0.042, "k_max 8192, tol 1e-12"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run to the end."""


def tail_rank(n: int) -> int:
    """1-based rank of op_tail_s among n sorted invocation times.

    The 90th percentile, which leaves at least 10 samples beyond it from
    n = 100 on; with fewer samples the (n - 10)-th value, and never a rank
    below the median. A run of 55 s holds about 100 invocations of
    lanczos-chain and over 1000 of closed-sweep.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(min(math.ceil(0.9 * n), n - 10), math.ceil(n / 2))


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Worker:
    """One fresh interpreter running ``worker.py``; timed from spawn to ready."""

    def __init__(self, layers, traced: bool, span_file: Path, deadline: float):
        env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), ",".join(layers),
             "1" if traced else "0", str(span_file)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            raise BenchError("worker gave no answer before the deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, argv, ref: bool = False) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "ref": ref}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        self.proc.stdin.write(json.dumps({"stop": True}) + "\n")
        self.proc.stdin.flush()
        final = self._read()
        self.env = final["env"]
        self.proc.stdin.close()
        self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_loop(worker: Worker, invocations, workdir: Path, checks, records: list,
             ref: bool = False) -> None:
    """Send each (label, argv) to the worker, then check its output; with
    ``ref``, the worker also times its reference work after each call."""
    out = workdir / "out"
    for label, argv in invocations:
        reply = worker.call(argv + ["--out", str(out)], ref)
        kind, rows, detail = checks.check(argv, reply["rc"], bool(reply["uncaught"]), out)
        records.append({
            "label": label, "argv": argv, "dt": reply["dt"], "ref": reply["ref"],
            "kind": kind, "rows": rows,
            "bytes": out.stat().st_size if out.exists() else 0,
            "detail": detail or reply["uncaught"] or " | ".join(reply["said"].split("\n"))[-200:],
        })
        out.unlink(missing_ok=True)


def timed(schedule, seconds: float, limit: float = math.inf):
    """Draw from the schedule until ``seconds`` of wall time have passed,
    but not after ``limit`` (a ``time.monotonic`` value)."""
    start = time.monotonic()
    while time.monotonic() - start < seconds and time.monotonic() < limit:
        yield next(schedule)


def setup_sample(layers, span_file: Path, deadline: float) -> float:
    """Set-up time of one more fresh worker, which is stopped at once."""
    worker = Worker(layers, False, span_file, deadline)
    try:
        worker.stop()
    finally:
        worker.kill()
    return worker.setup_s


def known_failures(args, checks, workdir: Path, deadline: float) -> list:
    """Send the workload's known failing inputs to a fresh worker."""
    worker = Worker(workloads.LAYERS_USED[args.workload], False, workdir / "spans.jsonl",
                    deadline)
    records: list = []
    try:
        run_loop(worker, [(f"known/{kind}", argv)
                          for kind, argv in workloads.KNOWN_FAILURES[args.workload]],
                 workdir, checks, records)
        worker.stop()
    finally:
        worker.kill()
    return records


def breakdown(records: list) -> Counter:
    return Counter(rec["kind"] for rec in records)


def whole_cycles(records: list, cycle: int) -> list:
    """The records of the complete cycles, so that every run weighs the
    invocation kinds alike (all records if not even one cycle finished)."""
    return records[: len(records) - len(records) % cycle] if len(records) >= cycle else records


def end_to_end(records: list, setup: list, maxrss_kb: int) -> dict:
    """The metrics as measured, and the invocation metrics scaled to the
    reference speed: times by REF_NOMINAL_S / (median reference time)."""
    dts = sorted(r["dt"] for r in records)
    scale = REF_NOMINAL_S / statistics.median(r["ref"] for r in records if r["ref"] is not None)
    raw = {
        "op_p50_s": statistics.median(dts),
        "op_tail_s": dts[tail_rank(len(dts)) - 1],
        "points_per_s": sum(r["rows"] for r in records if r["kind"] == "ok") / sum(dts),
    }
    return {
        **raw,
        "setup_s": statistics.median(setup),
        "op_p50_ref_s": raw["op_p50_s"] * scale,
        "op_tail_ref_s": raw["op_tail_s"] * scale,
        "points_per_ref_s": raw["points_per_s"] / scale,
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def print_records(records: list) -> None:
    by_label = {}
    for rec in records:
        by_label.setdefault(rec["label"], []).append(rec)
    print("per invocation kind: n, median s, kinds")
    for label, recs in sorted(by_label.items()):
        med = statistics.median(r["dt"] for r in recs)
        print(f"  {label:28s} {len(recs):4d} {med:9.4f}  {dict(breakdown(recs))}")
    samples = {}
    for rec in records:
        if rec["kind"] != "ok" and rec["kind"] not in samples:
            samples[rec["kind"]] = (rec["argv"], rec["detail"])
    for kind, (argv, detail) in samples.items():
        print(f"  first {kind}: {' '.join(argv)} -> {detail}")


def print_layers(summary: dict, traced_wall: float) -> None:
    functions = summary["functions"]
    print(f"layer self time (traced wall {traced_wall:.3f} s):")
    total = sum(row["self_s"] for row in functions.values()) or 1.0
    for layer, fns in tracing.LAYERS.items():
        self_s = sum(functions.get(f"{layer}.{fn}", {}).get("self_s", 0.0) for fn in fns)
        print(f"  {layer:9s} {self_s:9.4f} s  {100 * self_s / total:5.1f} %")
        for fn in fns:
            row = functions.get(f"{layer}.{fn}")
            if row:
                print(f"      {fn:32s} calls {row['calls']:7d}  self {row['self_s']:9.4f} s"
                      f"  total {row['total_s']:9.4f} s")
    if summary["missing"]:
        print(f"  not found (0 calls): {', '.join(summary['missing'])}")
    print("per-call time vs ROADMAP baseline (ROADMAP: 2 cores, default BLAS threads;"
          " here: 1 BLAS thread, traced):")
    sized = summary["sized"]
    baseline = {(key, size): (secs, note) for key, size, secs, note in ROADMAP_BASELINE}
    keys = sorted({key for key, *_ in ROADMAP_BASELINE})
    for key in keys:
        sizes = set(sized.get(key, {})) | {s for k, s in baseline if k == key}
        for size in sorted(sizes, key=int):
            times = sized.get(key, {}).get(size, [])
            here = f"{1e3 * statistics.median(times):9.2f} ms (n={len(times)})" if times else \
                "       not called here"
            base, note = baseline.get((key, size), (None, ""))
            ref = f"{1e3 * base:7.1f} ms" if base is not None else "        -"
            print(f"  {key:32s} size {size:>5s}  here {here:24s}  ROADMAP {ref}  {note}")


def measure(args, checks, workdir: Path, deadline: float):
    layers = workloads.LAYERS_USED[args.workload]
    schedule = workloads.schedule(args.workload, args.seed)
    span_file = workdir / "spans.jsonl"
    records: list = []
    if not args.trace:
        worker = Worker(layers, False, span_file, deadline)
        setup = [worker.setup_s]
        start = next_ref = time.monotonic()
        try:
            for item in timed(schedule, args.seconds, deadline - LOOP_MARGIN_S):
                ref = time.monotonic() >= next_ref
                if ref:
                    next_ref = time.monotonic() + REF_EVERY_S
                run_loop(worker, [item], workdir, checks, records, ref)
                if len(setup) < SETUP_SAMPLES and \
                        time.monotonic() - start >= len(setup) * args.seconds / SETUP_SAMPLES:
                    setup.append(setup_sample(layers, span_file, deadline))
            final = worker.stop()
        finally:
            worker.kill()
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(layers, span_file, deadline))
        print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup)}")
        counted = whole_cycles(records, len(workloads.CYCLES[args.workload]))
        n, rank = len(counted), tail_rank(len(counted))
        print(f"end-to-end metrics over the {n} invocations of complete cycles;"
              f" op_tail_s is the {rank}-th of {n} sorted times (p{100 * rank / n:.1f});"
              f" points_per_s counts CLI time only ({sum(r['dt'] for r in counted):.3f} s)")
        metrics = end_to_end(counted, setup, final["maxrss_kb"])
        refs = [r["ref"] for r in counted if r["ref"] is not None]
        print(f"reference work: median {1e3 * statistics.median(refs):.3f} ms over {len(refs)}"
              f" timings (nominal {1e3 * REF_NOMINAL_S:.1f} ms); as measured: op_p50_s"
              f" {metrics['op_p50_s']:.6g} s, op_tail_s {metrics['op_tail_s']:.6g} s,"
              f" points_per_s {metrics['points_per_s']:.6g} points/s")
        return worker.env, records, metrics

    # Both workers stay up and take each argv in turn, so host speed swings
    # hit the traced and the untraced calls alike.
    plain = Worker(layers, False, span_file, deadline)
    traced_records: list = []
    try:
        worker = Worker(layers, True, span_file, deadline)
        try:
            for item in timed(schedule, args.seconds):
                run_loop(plain, [item], workdir, checks, records)
                run_loop(worker, [item], workdir, checks, traced_records)
            plain.stop()
            final = worker.stop()
        finally:
            worker.kill()
    finally:
        plain.kill()
    WORK.mkdir(exist_ok=True)
    shutil.move(str(span_file), WORK / f"trace-{args.workload}.jsonl")
    plain_wall = sum(r["dt"] for r in records)
    traced_wall = sum(r["dt"] for r in traced_records)
    summary = final["trace"]
    counts = dict(summary["counts"])
    counts["cli.out_bytes"] = sum(r["bytes"] for r in traced_records)
    counts["cli.uncaught"] = sum(r["kind"] == "uncaught" for r in traced_records)
    metrics = tracing.layer_metrics(summary["functions"], counts, traced_wall / plain_wall)
    print(f"{len(records)} invocations each; CLI time untraced {plain_wall:.3f} s")
    print_layers(summary, traced_wall)
    print(f"trace_overhead: {traced_wall / plain_wall:.4f}")
    return worker.env, records + traced_records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "krylovgrowth" / "cli.py").is_file():
        print(f"no krylovgrowth sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import checks

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env, records, metrics = measure(args, checks, workdir, deadline)
        probe = known_failures(args, checks, workdir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["commit"] = git_commit(ROOT)
    kinds = breakdown(records)
    failed = sum(n for kind, n in kinds.items() if kind != "ok")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print_records(records)
    print(f"invocations {len(records)}: " + ", ".join(
        f"{kind} {kinds.get(kind, 0)}" for kind in checks.KINDS))
    print("known failures, sent after the measurement and not counted in it: " + ", ".join(
        f"{rec['label']} -> {rec['kind']}" for rec in probe))
    routes = checks.SURVIVAL_ROUTES
    if routes:
        print(f"survival probabilities checked by bch {routes['bch']},"
              f" checked_by_own_route {routes['own']} (bch undefined; compared with itself)")
    if args.trace:
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
    else:
        units = dict(END_TO_END)
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": kinds.get("wrong", 0) == 0 and all(rec["kind"] != "wrong" for rec in probe),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
