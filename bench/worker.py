"""Benchmark worker: one fresh interpreter that drives ``krylovgrowth.cli.main``.

Usage: ``python3 bench/worker.py <layer,layer,...> <trace 0|1> <span file>``,
with the source tree on PYTHONPATH. The worker imports the CLI, makes one
small warm-up call into each listed layer, and then serves JSON lines:

    -> {"ready": true}                           once set-up is done
    <- {"argv": [...], "ref": false}             one CLI invocation
    -> {"rc": 0, "uncaught": null, "dt": 0.01, "ref": null, "said": "..."}
                                                 exit code, wall time, output,
                                                 and the reference time if asked
    <- {"stop": true}
    -> {"maxrss_kb": ..., "env": {...}, "trace": {...}}
                                                 then the worker exits

Only the ``main`` call is timed, and, when asked, a fixed piece of reference
work right after it (:class:`Reference`). Whatever the CLI prints is
captured, so the protocol channel stays clean.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def warm_up(layers, scratch: Path) -> None:
    """One small call into each layer: first-call BLAS and LAPACK set-up."""
    from krylovgrowth import algebra, cli, coherent, fock, lanczos

    spec = algebra.LiouvillianSpec(0.5, 0.5)
    cfg = fock.TruncationConfig(dim=16)
    if "cli" in layers:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["--steps", "2", "--format", "json", "--out", str(scratch)])
        scratch.unlink(missing_ok=True)
    if "coherent" in layers:
        coherent.phi_series(coherent.closed_form_params(spec, 0.1))
    if "algebra" in layers:  # also builds the ladders of ``fock``
        L = algebra.build_liouvillian(spec, cfg)
    if "lanczos" in layers:
        chain = lanczos.lanczos_tridiagonalize(L, fock.FockVector.basis_state(16, 0), 8)
        lanczos.propagate_chain(chain, [0.0, 0.05])


class Reference:
    """A fixed piece of work whose time stands for the host's speed.

    It mixes the kinds of work the CLI does: Python arithmetic in a loop,
    JSON encoding, small complex matrix products and an array copy, about
    5 ms in all. It runs none of the program's code, so its time follows
    the host's speed and not the program's.
    """

    def __init__(self):
        import numpy as np

        self.matrix = (np.arange(96 * 96).reshape(96, 96) % 7) * (1 + 1j)
        self.array = np.arange(500_000, dtype=float)
        self.rows = [{"t": 0.1 * i, "values": {f"p{k}": 1e-3 * k for k in range(20)}}
                     for i in range(20)]

    def time(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        json.dumps(self.rows, indent=2)
        for _ in range(4):
            self.matrix @ self.matrix
        self.array.copy()
        return time.perf_counter() - start


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    workload_layers, traced, span_file = sys.argv[1].split(","), sys.argv[2] == "1", sys.argv[3]
    from krylovgrowth import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        print(f"krylovgrowth imported from {cli.__file__}, outside the checkout", file=sys.stderr)
        return 2
    warm_up(workload_layers, Path(span_file).with_suffix(".warmup"))
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    _emit({"ready": True})
    reference = None

    for line in sys.stdin:
        request = json.loads(line)
        if "argv" not in request:
            break
        if tracer is not None:
            tracer.invocation += 1
        sink = io.StringIO()
        rc, uncaught = None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = cli.main(request["argv"])
            except Exception as exc:  # a traceback escaping main is a counted failure kind
                uncaught = type(exc).__name__
            dt = time.perf_counter() - start
        ref = None
        if request.get("ref"):
            reference = reference or Reference()
            ref = reference.time()
        _emit({"rc": rc, "uncaught": uncaught, "dt": dt, "ref": ref,
               "said": sink.getvalue()[-300:]})

    summary = None
    if tracer is not None:
        tracer.dump(span_file)
        summary = tracer.summary()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({"maxrss_kb": maxrss_kb, "env": environment(), "trace": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main())
