"""Guards for the benchmark tooling, which reaches into gammasort by name.

``perfbench/tracing.py`` wraps module attributes with ``getattr`` when it
installs its spans, the benchmark scripts import names from ``gammasort``,
and ``perfbench/selftest.py`` checks ``cli.DEFAULT_CONFIG`` and
``cli.build_template``.  A rename in ``src/`` would break the benchmark
without failing any other test.  The last guards keep JSON reading
and writing in the one module that checks it, keep file writes in the four
writers, keep random streams in ``seeding``, keep process creation in one
function, keep unused imports out of the package, and keep the keyword
defaults that restate ``DEFAULT_CONFIG`` equal to it.  Template synthesis
must not load scipy, which is no runtime dependency.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "gammasort"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_function_resolves(tracing):
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"gammasort.{mod}"), attr, None))
    ]
    assert not missing


def test_every_traced_method_resolves(tracing):
    missing = [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr in tracing.METHOD_TARGETS
        if not callable(
            getattr(getattr(importlib.import_module(f"gammasort.{mod}"), cls, None), attr, None)
        )
    ]
    assert not missing


def test_every_name_perfbench_imports_resolves():
    # The benchmark imports gammasort by name; a rename would break only the benchmark.
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gammasort"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)
                            and importlib.util.find_spec(f"{node.module}.{alias.name}") is None]
    assert not missing


def test_cli_names_the_selftest_reads():
    from gammasort import cli, forward_model

    assert isinstance(cli.DEFAULT_CONFIG, dict)
    assert cli.build_template is forward_model.build_template


@pytest.mark.parametrize("arch, width", [("linear", 0), ("hidden_tanh", 64)])
def test_flop_annotator_reads_the_parameter_fields(tracing, arch, width):
    # The GFLOP counts tell the architectures apart by ``weights`` versus
    # ``w1``/``w2``; a parameter refactor that moved those would miscount silently.
    from gammasort.neuralnet import init_params

    params = init_params(arch, 256, 5, 0, 64)
    assert tracing._shapes(params, np.ones((32, 256))) == (32, 256, width, 5)


def test_template_annotator_reads_the_build_template_arguments(tracing):
    # Each traced build_template call is keyed by its bound arguments, as the
    # tracer binds them; a renamed parameter would fail only traced passes.
    from gammasort.forward_model import (
        SourceConfig,
        bare_shielding,
        build_template,
        default_detector,
        isotope_by_name,
    )

    config = SourceConfig(isotope_by_name("Cesium"), 1.0e8, 10.0, bare_shielding())
    bound = inspect.signature(build_template).bind(config, default_detector(), 86400.0)
    bound.apply_defaults()
    cell = tracing._template_cell(bound.arguments, None)["cell"]
    assert cell.startswith("('Cesium', 100000000.0, 10.0, 'Bare', 0.0, False, ")
    assert cell.endswith(", 86400.0, 300.0)")


def test_backward_annotator_reads_the_backward_arguments(tracing):
    # Each traced backward call counts its flops from its bound ``params`` and
    # ``x``, as the tracer binds them; a renamed parameter would fail only traced passes.
    from gammasort.neuralnet import backward, init_params

    params = init_params("hidden_tanh", 256, 5, 0, 64)
    x, labels = np.ones((32, 256)), np.arange(32) % 5
    bound = inspect.signature(backward).bind(params, x, labels)
    bound.apply_defaults()
    flops = tracing._backward_flops(bound.arguments, backward(params, x, labels))["flops"]
    assert flops == 4 * 32 * 256 * 64 + 6 * 32 * 64 * 5


def _importers(package: str) -> list[str]:
    """The modules under ``src/gammasort`` with an import of ``package`` or a submodule of it."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == package or name.startswith(f"{package}.") for name in names):
                importers.append(path.name)
    return importers


def test_only_jsonfile_imports_json():
    # Every JSON document goes through gammasort.jsonfile's one writer and one
    # checked reader; a second ``import json`` would be a second, unchecked path.
    assert _importers("json") == ["jsonfile.py"]


def test_no_module_imports_scipy():
    # The runtime dependency is numpy alone: ``forward_model._erf`` ports the
    # one scipy function the package used.
    assert _importers("scipy") == []


def test_only_spectra_parses_csv():
    # Every CSV, the nuclide table's text column included, goes through
    # spectra.read_csv_cells and its cells through spectra.csv_numbers, which
    # name the line of a bad row.  numpy's text readers or the csv module
    # would be a second parser that takes other cells.
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("loadtxt", "genfromtxt")]
    assert calls == []
    assert _importers("csv") == []


def _imported_by(args: list[str]) -> set[str]:
    """Every module a fresh ``python -X importtime <args>`` process imports."""
    run = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True, check=True)
    return {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args", [
    ["-c", "import sys; from gammasort import run_scenario; run_scenario('isotope', sys.argv[1])"],
    ["-m", "gammasort.cli", "synth", "--out"],
], ids=["run_scenario", "synth"])
def test_template_synthesis_leaves_scipy_unloaded(tmp_path, args):
    imported = _imported_by([*args, str(tmp_path / "out")])
    assert (tmp_path / "out").is_dir()
    assert sorted(m for m in imported if m.startswith("scipy")) == []


def test_importing_the_package_leaves_multiprocessing_unloaded():
    # Only the training evaluator uses multiprocessing, and imports it when it
    # starts, so setting up a run does not pay for the import.
    imported = _imported_by(["-c", "import gammasort, gammasort.cli"])
    assert "gammasort.cli" in imported
    assert sorted(m for m in imported if m.startswith("multiprocessing")) == []


# The functions that write files: one for JSON, one for a dataset's data.npy,
# one for CSV, one for SVG.
WRITERS = ["ensemble.py:write_dataset", "jsonfile.py:write_json", "spectra.py:write_csv_table",
           "svgplot.py:_write_chart"]


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``write_text``, ``write_bytes`` or an ``open`` that may write.

    The mode of ``open(file, mode)`` or ``Path.open(mode)`` writes if it holds
    ``w``, ``a``, ``x`` or ``+``; a mode that is not a literal may write.
    """
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 1 if isinstance(func, ast.Name) else 0  # open(file, mode), but Path.open(mode)
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[at : at + 1]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or any(flag in mode.value for flag in "wax+")
        for mode in modes
    )


def test_only_the_writers_write_files():
    # Each file format is written in one function, so how files are written
    # (say, atomically) is decided in those four places and nowhere else.
    writers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            writers |= {f"{path.name}:{owner}" for node in ast.walk(top)
                        if isinstance(node, ast.Call) and _writes_a_file(node)}
    assert sorted(writers) == WRITERS


def test_only_seeding_calls_numpy_random():
    # Every random stream is keyed in gammasort.seeding, which also computes
    # the Philox keys of whole datasets at once; a stream built elsewhere
    # would escape the per-item seed contract.  Annotations are not calls.
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                names = [ast.unparse(node.func)]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            callers += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.startswith(("np.random.", "numpy.random"))]
    assert callers and all(c.startswith("seeding.py:") for c in callers), callers



def _python_floats(node: ast.AST) -> bool:
    """Whether ``node`` is ``x.tolist()``, or ``zip(*[iter(x.tolist())] * k)`` grouping one."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "tolist" and not node.args
    if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "zip"):
        return False
    grouped = node.args[0] if len(node.args) == 1 else None
    if not (isinstance(grouped, ast.Starred) and isinstance(grouped.value, ast.BinOp)):
        return False
    items = grouped.value.left
    return (isinstance(items, ast.List) and len(items.elts) == 1
            and isinstance(items.elts[0], ast.Call) and ast.unparse(items.elts[0].func) == "iter"
            and len(items.elts[0].args) == 1 and _python_floats(items.elts[0].args[0]))


def test_every_fsum_reads_python_floats():
    # math.fsum over a numpy array converts each value to a numpy scalar
    # first, which cost rebin_counts about four times its sums.  So fsum is
    # called on a ``.tolist()`` result, or mapped over one, and nowhere else.
    uses, allowed = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "math.fsum":
                uses.append((path.name, node))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                uses += [(path.name, node) for alias in node.names if alias.name == "fsum"]
            if not (isinstance(node, ast.Call) and len(node.args) >= 1):
                continue
            if ast.unparse(node.func) == "math.fsum" and _python_floats(node.args[0]):
                allowed.add(id(node.func))
            elif (ast.unparse(node.func) == "map" and len(node.args) == 2
                  and ast.unparse(node.args[0]) == "math.fsum" and _python_floats(node.args[1])):
                allowed.add(id(node.args[0]))
    assert uses
    assert [f"{name}:{node.lineno}" for name, node in uses if id(node) not in allowed] == []



# Calls and imports that start (or replace) a process, by dotted-name prefix.
PROCESS_STARTERS = ("os.fork", "os.spawn", "os.posix_spawn", "os.exec", "os.system", "os.popen",
                    "multiprocessing", "subprocess", "concurrent.futures")


def _starts_a_process(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        names = [ast.unparse(node.func)]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return False
    return any(name.startswith(PROCESS_STARTERS) for name in names)


def test_only_one_function_starts_processes():
    # Each epoch's metrics are computed in a forked evaluator; one class
    # forks, so how the evaluator leaves (without flushing the trainer's
    # buffers) and how it is reaped is decided there and nowhere else.
    starters = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            starters |= {f"{path.name}:{owner}" for node in ast.walk(top)
                         if _starts_a_process(node)}
    assert sorted(starters) == ["forking.py:Child"]

def test_no_unused_imports():
    # No linter is installed, so this stands in for flake8's F401: a name a
    # module imports and never reads is dead code that a refactor left behind.
    # A name kept for readers outside the module says so with ``# noqa: F401``.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # the package's public names
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_keyword_defaults_equal_the_run_config():
    # ``neuralnet`` and ``ensemble`` cannot import ``experiment``, so these
    # defaults restate DEFAULT_CONFIG; README says its ``train`` section holds
    # the only training defaults, and this keeps the copies from drifting.
    from gammasort.ensemble import standard_grid
    from gammasort.experiment import DEFAULT_CONFIG, oversample_positives
    from gammasort.neuralnet import AdamHyper, init_params

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    train, grid = DEFAULT_CONFIG["train"], DEFAULT_CONFIG["grid"]
    assert dataclasses.asdict(AdamHyper()) == {key: train[key] for key in
                                               ("learning_rate", "beta1", "beta2", "epsilon")}
    assert default(init_params, "width") == train["width"]
    assert default(oversample_positives, "ratio") == train["oversample_ratio"]
    grid_keys = {"isotopes": "isotopes", "distances_m": "distances_m", "materials": "shieldings",
                 "activity_bq": "activity_bq", "include_background": "include_background"}
    grid_defaults = {arg: default(standard_grid, arg) for arg in grid_keys}
    assert {arg: list(v) if isinstance(v, tuple) else v for arg, v in grid_defaults.items()} == {
        arg: grid[key] for arg, key in grid_keys.items()}
