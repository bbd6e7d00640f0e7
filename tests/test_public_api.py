"""The package's public surface."""

import ast
import importlib
from pathlib import Path

import spectral_cheb


def test_reexports_are_declared_public_by_their_modules():
    tree = ast.parse(Path(spectral_cheb.__file__).read_text())
    undeclared = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"spectral_cheb.{node.module}")
            declared = getattr(module, "__all__", ())
            undeclared += [f"{node.module}.{alias.name}" for alias in node.names
                           if alias.name not in declared]
    assert undeclared == []


def test_declared_names_exist():
    for name in ("chebyshev", "degree_dist", "exceptions", "grad_est", "optimize", "probes",
                 "reference", "tasks", "cli"):
        module = importlib.import_module(f"spectral_cheb.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
