import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krylovgrowth

MODULES = ("algebra", "bch", "cli", "coherent", "fock", "lanczos")

# Symbols that only their own unit tests used, removed from the library;
# "Class.attr" names a removed method.
REMOVED = {
    "algebra": ("GeneratorSet", "QuadraticHamiltonian.is_hermitian"),
    "bch": (
        "Rep4Matrix", "displacement_operator", "squeeze_operator", "bogoliubov",
        "bogoliubov_safe_block", "conjugated_annihilation",
    ),
    "coherent": ("MomentReport", "moment_report", "variance_closed", "hw_profile",
                 "interaction_term"),
    "fock": (
        "inner", "matrix_bandwidth", "FockVector.to_json_pairs", "FockVector.from_json_pairs",
        "OperatorMatrix.from_entries", "OperatorMatrix.__matmul__", "OperatorMatrix.is_hermitian",
        "HERMITIAN_TOL",
    ),
    "errors": ("NonHermitianInput",),
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
        "or m == 'krylovgrowth.bch'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"
