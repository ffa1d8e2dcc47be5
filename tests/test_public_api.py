import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krylovgrowth

MODULES = ("algebra", "bch", "cli", "coherent", "fock", "lanczos")

# The dense realization of the symmetry algebra, defined in ``bch`` alone.
DENSE_ALGEBRA = ("QuadraticHamiltonian", "build_ladders", "build_generators", "commutator",
                 "hamiltonian_to_matrix")

# Symbols that only their own unit tests used, removed from the library;
# "Class.attr" names a removed method.
REMOVED = {
    "algebra": ("GeneratorSet", "GENERATOR_LABELS", "sized_oracle_states", "ORACLE_DIMS"),
    "bch": (
        "Rep4Matrix", "displacement_operator", "squeeze_operator", "bogoliubov",
        "bogoliubov_safe_block", "conjugated_annihilation", "QuadraticHamiltonian.is_hermitian",
    ),
    "coherent": ("MomentReport", "moment_report", "variance_closed", "hw_profile",
                 "interaction_term", "SL2RWeight", "DisplacementParams.s"),
    "fock": (
        "inner", "matrix_bandwidth", "FockVector.to_json_pairs", "FockVector.from_json_pairs",
        "OperatorMatrix.from_entries", "OperatorMatrix.__matmul__", "OperatorMatrix.is_hermitian",
        "HERMITIAN_TOL", "TruncationConfig.tail_tolerance", "TruncationConfig.guard_size",
        "TruncationConfig.guard_start", "OperatorMatrix.matvec", "band_windows",
        "OperatorMatrix.leading_matvec", "evolve_state", "guard_band_mass", "GUARD_FRACTION",
        "FockVector.probabilities",
    ),
    "cli": ("ResultRow",),
    "lanczos": ("ChainWavefunction", "KrylovChain.tridiagonal", "project_onto_chain",
                "PREFIX_BLOCK", "EDGE_LEAK_TOL"),
    "errors": ("NonHermitianInput", "TruncationOverflow"),
}


def _package_imports():
    tree = ast.parse(Path(krylovgrowth.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"krylovgrowth.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"
        # a module exports only what it defines
        value = getattr(module, symbol)
        assert getattr(value, "__module__", module.__name__) == module.__name__, symbol


def test_package_imports_resolve():
    imports = list(_package_imports())
    assert imports
    for module_name, symbol in imports:
        module = importlib.import_module(f"krylovgrowth.{module_name}")
        assert getattr(krylovgrowth, symbol) is getattr(module, symbol)


@pytest.mark.parametrize("symbol", ["oracle_states", "chain_states"])
def test_oracle_and_chain_entry_points_are_exported(symbol):
    from krylovgrowth import algebra

    assert symbol in algebra.__all__ and getattr(krylovgrowth, symbol) is getattr(algebra, symbol)


def test_dense_algebra_lives_in_bch_only():
    from krylovgrowth import algebra, bch, fock

    for symbol in DENSE_ALGEBRA:
        assert symbol in bch.__all__, symbol
        for module in (algebra, fock, krylovgrowth):
            assert not hasattr(module, symbol), f"{module.__name__}.{symbol}"


def test_removed_symbols_are_gone():
    for name, symbols in REMOVED.items():
        module = importlib.import_module(f"krylovgrowth.{name}")
        for symbol in symbols:
            owner, _, attr = symbol.rpartition(".")
            if owner:
                assert not hasattr(getattr(module, owner), attr), f"{name}.{symbol}"
                continue
            assert not hasattr(module, symbol), f"{name}.{symbol}"
            assert symbol not in getattr(module, "__all__", ())
            assert not hasattr(krylovgrowth, symbol), symbol


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this process may already hold scipy
    src = Path(krylovgrowth.__file__).resolve().parents[1]
    code = (
        "import sys, krylovgrowth.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'krylovgrowth.bch')); "
        "print(sorted(f'{m}.{name}' for m in sys.modules if m.split('.')[0] == 'krylovgrowth' "
        "for name in ('build_ladders', 'build_generators', 'hamiltonian_to_matrix') "
        "if hasattr(sys.modules[m], name)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    # nor does the CLI load a module that builds the dense ladder matrices
    assert run.stdout.splitlines() == ["[]", "[]"]


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_bench_warm_up_runs_on_the_library(tmp_path):
    # the benchmark worker's warm-up calls into every layer before timing:
    # an API change it cannot follow fails here, not in a benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    found = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(found)
    found.loader.exec_module(worker)
    worker.warm_up({"cli", "coherent", "algebra", "lanczos"}, tmp_path / "warm.json")

    from krylovgrowth import algebra, coherent, fock, lanczos

    spec = algebra.LiouvillianSpec(0.5, 0.5)
    L = algebra.build_liouvillian(spec, fock.TruncationConfig(dim=16))
    chain = lanczos.lanczos_tridiagonalize(L, fock.FockVector.basis_state(16, 0), 8)
    series = coherent.phi_series(coherent.closed_form_params(spec, 0.1))
    # the tracer sizes its records by these
    assert type(L.dim) is int and type(chain.m) is int and type(series.k_max) is int
