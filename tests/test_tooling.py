"""Guards for the benchmark tooling, which reaches into gammasort by name.

``perfbench/tracing.py`` wraps module attributes with ``getattr`` when it
installs its spans, the benchmark scripts import names from ``gammasort``,
and ``perfbench/selftest.py`` checks ``cli.DEFAULT_CONFIG`` and
``cli.build_template``.  A rename in ``src/`` would break the benchmark
without failing any other test.  The last guards keep JSON reading
and writing in the one module that checks it, keep file writes in the four
writers, keep random streams in ``seeding``, keep process creation in one
function, and keep unused imports out of the package.
"""

import ast
import importlib
import importlib.util
import inspect
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


def test_only_jsonfile_imports_json():
    # Every JSON document goes through gammasort.jsonfile's one writer and one
    # checked reader; a second ``import json`` would be a second, unchecked path.
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.append(path.name)
    assert importers == ["jsonfile.py"]


# The functions that write files: one for JSON, one for CSV, two for SVG.
WRITERS = ["jsonfile.py:write_json", "spectra.py:write_csv_table", "svgplot.py:write_bar_svg",
           "svgplot.py:write_line_svg"]


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
    # The gauge architectures train side by side in forked children; one
    # function forks, so how a child leaves (without flushing the parent's
    # buffers) and how it is reaped is decided there and nowhere else.
    starters = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            starters |= {f"{path.name}:{owner}" for node in ast.walk(top)
                         if _starts_a_process(node)}
    assert sorted(starters) == ["experiment.py:_fork_train"]

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
