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


# names in a module's __all__ that no code outside tests/ reads, each kept
# public for what pins it
CENSUS_ALLOWED = {
    # results of ratings_from_files, completion_train and gp_train, whose
    # fields bench/worker.py reads
    "tasks.RatingSet", "tasks.CompletionResult", "tasks.GPResult",
    # criteria 5 and 11 draw their gradient samples with it
    "grad_est.sample_spectral_grads",
    # criterion 11 checks the GP gradients against it
    "tasks.gp_exact_nll_grad_logspace",
}


def test_public_names_are_used_outside_tests():
    # every name a module declares public is read by another module, the
    # benchmark, a demo or a script (the package __init__ only re-exports),
    # or is allowed above
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "spectral_cheb"
    files = [*package.glob("*.py"), *(root / "bench").glob("*.py"),
             *(root / "demos").glob("*.py"), *(root / "scripts").glob("*.py")]
    read = {}
    for path in files:
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        read[path] = names
    unused = []
    for module_path in sorted(package.glob("*.py")):
        if module_path.name == "__init__.py":
            continue
        module = importlib.import_module(f"spectral_cheb.{module_path.stem}")
        unused += [f"{module_path.stem}.{name}" for name in getattr(module, "__all__", ())
                   if not any(name in names for path, names in read.items()
                              if path not in (module_path, package / "__init__.py"))]
    assert sorted(set(unused) - CENSUS_ALLOWED) == []
    assert sorted(CENSUS_ALLOWED - set(unused)) == []


def test_benchmark_tracer_installs_and_uninstalls():
    # bench/tracer.py rebinds package functions and methods by name; a
    # removed name fails its install here rather than only in the bench's
    # own checks
    import importlib.util
    import sys

    import numpy as np
    import scipy.sparse.linalg

    import spectral_cheb.cli  # noqa: F401  (the tracer also wraps cli.main)

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    def bindings():
        modules = [m for name, m in sys.modules.items()
                   if name == "spectral_cheb" or name.startswith("spectral_cheb.")]
        classes = [spectral_cheb.MatrixOracle, spectral_cheb.LowRankPSD,
                   spectral_cheb.ParamMatrixOracle, spectral_cheb.SpectralModel,
                   spectral_cheb.GPProblem]
        return ([dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
                + [scipy.sparse.linalg.cg])

    before = bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert bindings() != before
        gp = spectral_cheb.GPProblem(np.linspace(0.0, 1.0, 12), np.sin(np.arange(12.0)),
                                     np.array([0.5, 1.0, 0.3]))
        value = spectral_cheb.gp_negloglik(gp, mode="estimate", seed=3, m_probes=4)
    finally:
        tracer.uninstall()
    assert np.isfinite(value)
    after = bindings()
    assert len(after) == len(before)
    for got, want in zip(after, before):
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            assert all(got[k] is want[k] for k in want)
        else:
            assert got is want
    metrics = tracer.metrics()
    assert metrics["degree_dist.degrees_drawn"] == 1
    assert metrics["probes.probe_streams"] == 4
    assert metrics["tasks.nll_curve_ms"] > 0.0


def test_benchmark_worker_call_shapes_bind():
    # bench/worker.py and bench/tracer.py call these with keywords; a
    # signature trim fails here rather than as a failed benchmark run
    from inspect import signature

    from spectral_cheb import (
        CompletionProblem,
        SGDConfig,
        SVRGConfig,
        completion_train,
        gp_train,
        ratings_from_files,
        sgd_run,
        svrg_run,
    )

    arg = object()
    signature(ratings_from_files).bind(arg, None, seed=1)
    signature(CompletionProblem).bind(arg, epsilon=0.1, lam=1.0)
    signature(SVRGConfig).bind(S=1, T=1, eta=0.1, M=1, N=1, master_seed=1)
    signature(SGDConfig).bind(T=1, M=1, N=1, master_seed=1, step_rule="exp_decay",
                              step0=0.1, decay=0.9)
    signature(completion_train).bind(arg, arg, arg, optimizer="svrg", dist_kind="opt",
                                     svd_rank=10)
    signature(gp_train).bind(arg, arg, log_halfwidth=3.0)
    signature(sgd_run).bind(obj=arg, theta0=arg, cfg=arg, callback=None)
    signature(svrg_run).bind(obj=arg, theta0=arg, cfg=arg, exact_grad=arg, callback=None)


def test_no_unused_top_level_imports():
    # every name a module imports at its top level is read somewhere in
    # it; the package __init__ re-exports its imports and is exempt
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({alias.asname or alias.name.split(".")[0]: node.lineno
                              for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(root)}:{line} {name}"
                   for name, line in bound.items() if name not in read]
    assert unused == []


def test_every_parameter_is_read():
    # every def under src/ reads each of its parameters, in its body or a
    # nested scope; self, cls and names starting with _ are exempt
    root = Path(__file__).resolve().parents[1]
    unread = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)}
            unread += [f"{path.relative_to(root)}:{node.lineno} {node.name}({arg.arg})"
                       for arg in params if arg.arg not in ("self", "cls")
                       and not arg.arg.startswith("_") and arg.arg not in read]
    assert unread == []
