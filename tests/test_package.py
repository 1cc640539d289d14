"""Package structure: imports between modules and the exported names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenoscope

# read from the source tree, so that a broken import still reports here
SRC = Path(__file__).resolve().parents[1] / "src" / "zenoscope"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def top_level_names(tree):
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def relative_imports(tree):
    """``(module, name)`` for every ``from .module import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_names_imported_across_modules(module):
    private = [f"{src}.{name}" for src, name in relative_imports(MODULES[module])
               if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_imported_names_exist(module):
    missing = [f"{src}.{name}" for src, name in relative_imports(MODULES[module])
               if src is not None and name not in top_level_names(MODULES[src])]
    assert missing == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_all_lists_only_defined_names(module):
    tree = MODULES[module]
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    for names in exported:
        assert sorted(set(names) - top_level_names(tree)) == []


def test_only_spectral_opens_files_for_writing():
    # every export goes through spectral.write_csv, the one place the CSV format is spelled out
    demos = Path(__file__).resolve().parents[1] / "demos"
    trees = dict(MODULES, **{f"demos/{path.name}": ast.parse(path.read_text())
                             for path in sorted(demos.glob("*.py"))})
    writers = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(isinstance(m, ast.Constant) and set(m.value) & set("wax+") for m in modes):
                writers.append(name)
    assert writers == ["spectral"]


def test_cli_reads_every_config_field():
    # a config key whose field no experiment reads is parsed and then silently ignored
    tree = MODULES["cli"]
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    fields = {node.target.id for node in config.body if isinstance(node, ast.AnnAssign)}
    read = {node.attr
            for func in tree.body
            if isinstance(func, ast.FunctionDef)
            and func.name not in ("parse_config", "dump_config")
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    assert sorted(fields - read) == []


def test_only_spectral_checks_finiteness():
    # the input rules live beside check_size in spectral; parse_config's line-numbered
    # message is the config file's own boundary
    calls = []
    for name, tree in MODULES.items():
        if name == "spectral":
            continue
        exempt = {id(node) for func in tree.body
                  if isinstance(func, ast.FunctionDef) and func.name == "parse_config"
                  for node in ast.walk(func)}
        calls += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in exempt
                  and "isfinite" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert calls == []


def test_one_stepper_and_one_single_integral_route():
    # _advance is the one trajectory stepper; rate_curve(..., RateSource.KK_INTEGRAL)
    # is the single-integral route
    modules = (zenoscope, zenoscope.rates, zenoscope.trajectories)
    exported = [f"{module.__name__}.{name}" for module in modules
                for name in ("mc_step", "kk_rate") if hasattr(module, name)]
    assert exported == []


@pytest.mark.parametrize("module", ["zenoscope", "zenoscope.cli"])
def test_import_loads_no_scipy(module):
    # the package runs on numpy alone: scipy.special and scipy.fft cost about 0.25 s and 300
    # modules of every process, scipy.integrate and scipy.signal more; SciPy is the tests'
    # oracle (QUADPACK, the special functions, the FFT)
    code = (f"import sys, {module}; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["zenoscope", "zenoscope.cli"])
def test_import_leaves_scipy_integrate_unloaded(module):
    # scipy.integrate pulls in scipy.optimize and scipy.sparse.linalg, about 0.3 s and
    # 25 MB of every process; only the tests' QUADPACK oracle of the double-exponential
    # sums needs it, and it lives in tests/test_spectral.py
    code = f"import sys, {module}; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["zenoscope", "zenoscope.cli"])
def test_import_leaves_numpy_polynomial_and_futures_unloaded(module):
    # the closed forms take their Taylor series by rates._horner, and only run_ensemble's
    # n_jobs > 1 branch imports concurrent.futures; both cost start-up time and memory
    code = (f"import sys, {module}; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'concurrent'"
            " or name.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("suite", ["rates", "appendix-a", "fig4"])
def test_verify_suites_run_without_scipy(suite):
    # with sys.modules["scipy"] = None every import of scipy fails, as if it were not
    # installed; the suites read every closed form, kernel and sampler
    code = ("import sys; sys.modules['scipy'] = None; from zenoscope.cli import main; "
            f"main(['verify', '{suite}'])")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def shape_comparisons(tree, scope=""):
    """The enclosing function, class or ``<module>`` of every comparison against a
    ``Shape.<member>``, once per comparison."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from shape_comparisons(node, f"{scope}{node.name}.")
            continue
        site = (f"{scope}{node.name}" if isinstance(node, ast.FunctionDef)
                else scope.rstrip(".") or "<module>")
        for cmp in ast.walk(node):
            if isinstance(cmp, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and isinstance(side.value, ast.Name)
                    and side.value.id == "Shape" for side in [cmp.left, *cmp.comparators]):
                yield site


def test_shapes_are_told_apart_by_their_records():
    # what each shape is lives in one record of spectral._SHAPES; the comparisons left
    # are the table check, the shift-theorem split of the double peak, the table-file
    # load and the analytic Lorentzian decay reference
    sites = sorted(f"{name}.{site}" for name, tree in MODULES.items()
                   for site in shape_comparisons(tree))
    assert sites == ["cli._density", "cli._exp_decay", "spectral.SpectralDensity.__post_init__",
                     "spectral._fourier_g"]
    assert set(zenoscope.spectral._SHAPES) == set(zenoscope.Shape)

