"""Span tracing around gammasort's public functions, applied from outside.

Each traced function is wrapped at every module attribute that binds it.
``from .x import y`` makes ``gammasort.x.y`` and ``gammasort.<caller>.y``
distinct names for one function object, so patching only the defining module
would miss most calls.  Wrappers record one span per call (name, start, end,
parent span, pass id) in memory; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute) -> span name.  ``LabeledDataset.as_matrix`` is a method
# and is patched on the class.
TARGETS = {
    ("forward_model", "build_template"): "forward_model.build_template",
    ("forward_model", "line_response"): "forward_model.line_response",
    ("spectra", "rebin"): "spectra.rebin",
    ("spectra", "read_spectrum_csv"): "spectra.read_spectrum_csv",
    ("spectra", "write_spectrum_csv"): "spectra.write_spectrum_csv",
    ("nucleardata", "load_nuclide_lines"): "nucleardata.load_nuclide_lines",
    ("nucleardata", "load_attenuation_table"): "nucleardata.load_attenuation_table",
    ("seeding", "derive_seed"): "seeding.derive_seed",
    ("ensemble", "poisson_sample"): "ensemble.poisson_sample",
    ("ensemble", "build_dataset"): "ensemble.build_dataset",
    ("ensemble", "template_dataset"): "ensemble.template_dataset",
    ("ensemble", "write_dataset"): "ensemble.write_dataset",
    ("ensemble", "read_dataset"): "ensemble.read_dataset",
    ("neuralnet", "forward"): "neuralnet.forward",
    ("neuralnet", "backward"): "neuralnet.backward",
    ("neuralnet", "adam_step"): "neuralnet.adam_step",
    ("experiment", "train"): "experiment.train",
    ("experiment", "evaluate"): "experiment.evaluate",
    ("cli", "cmd_synth"): "cli.synth",
    ("cli", "cmd_sample"): "cli.sample",
    ("cli", "cmd_train"): "cli.train",
    ("cli", "cmd_eval"): "cli.eval",
    ("cli", "cmd_report"): "cli.report",
    ("svgplot", "write_line_svg"): "svgplot.write_line_svg",
    ("svgplot", "write_bar_svg"): "svgplot.write_bar_svg",
}
METHOD_TARGETS = {("ensemble", "LabeledDataset", "as_matrix"): "ensemble.as_matrix"}


def _shapes(params, x) -> tuple[int, int, int, int]:
    """(rows, channels, hidden width or 0, classes) of one network call."""
    rows = x.shape[0] if getattr(x, "ndim", 1) > 1 else 1
    if hasattr(params, "weights"):
        classes, channels = params.weights.shape
        return rows, channels, 0, classes
    width, channels = params.w1.shape
    return rows, channels, width, params.w2.shape[0]


def _forward_flops(args: dict, result) -> dict:
    n, c, w, k = _shapes(args["params"], args["x"])
    flops = 2 * n * c * k if w == 0 else 2 * n * (c * w + w * k)
    return {"flops": flops}


def _backward_flops(args: dict, result) -> dict:
    # Forward pass plus the weight-gradient matmuls (and, for the hidden
    # model, the back-propagation into the hidden layer).
    n, c, w, k = _shapes(args["params"], args["x"])
    flops = 4 * n * c * k if w == 0 else 4 * n * c * w + 6 * n * w * k
    return {"flops": flops}


def _template_cell(args: dict, result) -> dict:
    config = args["config"]
    cell = (
        config.isotope.name,
        config.activity_bq,
        config.distance_m,
        config.shielding.material.value,
        config.shielding.thickness_cm,
        config.include_background,
        args["detector"],
        args["dwell_s"],
        args.get("background_cps"),
    )
    return {"cell": repr(cell)}


def _dataset_bytes(args: dict, result) -> dict:
    manifest = Path(result)
    data = manifest.parent / "data.csv"
    size = manifest.stat().st_size + (data.stat().st_size if data.is_file() else 0)
    return {"bytes": size}


# Span attributes computed from a call's bound arguments and its result.
ANNOTATORS = {
    "forward_model.build_template": _template_cell,
    "neuralnet.forward": _forward_flops,
    "neuralnet.backward": _backward_flops,
    "ensemble.write_dataset": _dataset_bytes,
}


@dataclass
class Span:
    pass_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the wrapped functions between install() and uninstall()."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._pass_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        annotate = ANNOTATORS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # A worker thread (the synth pool) inherits the span open on
                # the thread that started the pass.
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = {}
                if annotate is not None and not error:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = annotate(bound.arguments, result)
                self.spans.append(
                    Span(self._pass_id, span_id, parent, name, start, end, error, attrs)
                )

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of every target in the loaded gammasort modules."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gammasort" or n.startswith("gammasort."))
        ]
        by_name = {n: m for n, m in sys.modules.items() if n.startswith("gammasort.")}
        for (mod, attr), name in TARGETS.items():
            original = getattr(by_name[f"gammasort.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for (mod, cls, attr), name in METHOD_TARGETS.items():
            owner = getattr(by_name[f"gammasort.{mod}"], cls)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id
        self._main_stack = self._stack()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def function_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s (busy minus wrapped children), errors.

    busy_s sums durations, so spans on concurrent threads count in full.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        covered = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.span_id, ())
            if b > s.start and a < s.end
        ]
        row["calls"] += 1
        row["busy_s"] += s.duration
        row["self_s"] += s.duration - _union_length(covered)
        row["errors"] += int(s.error)
    return table


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    table = function_table(spans)

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    template_calls = get("forward_model.build_template", "calls")
    cells = {s.attrs["cell"] for s in spans if s.name == "forward_model.build_template"}
    flops = attr_sum("neuralnet.forward", "flops") + attr_sum("neuralnet.backward", "flops")
    nn_busy = get("neuralnet.forward", "busy_s") + get("neuralnet.backward", "busy_s")
    loaders = ("nucleardata.load_nuclide_lines", "nucleardata.load_attenuation_table")
    svg = ("svgplot.write_line_svg", "svgplot.write_bar_svg")

    metrics = {
        "forward_model.build_template.calls": template_calls,
        "forward_model.build_template.busy_s": get("forward_model.build_template", "busy_s"),
        "forward_model.line_response.calls": get("forward_model.line_response", "calls"),
        "forward_model.template_reuse": len(cells) / template_calls if template_calls else 0.0,
        "spectra.rebin.calls": get("spectra.rebin", "calls"),
        "spectra.rebin.busy_s": get("spectra.rebin", "busy_s"),
        "spectra.read_spectrum_csv.busy_s": get("spectra.read_spectrum_csv", "busy_s"),
        "spectra.write_spectrum_csv.busy_s": get("spectra.write_spectrum_csv", "busy_s"),
        "nucleardata.table_loads": sum(get(n, "calls") for n in loaders),
        "nucleardata.busy_s": sum(get(n, "busy_s") for n in loaders),
        "seeding.derive_seed.calls": get("seeding.derive_seed", "calls"),
        "seeding.derive_seed.busy_s": get("seeding.derive_seed", "busy_s"),
        "ensemble.poisson_sample.calls": get("ensemble.poisson_sample", "calls"),
        "ensemble.poisson_sample.busy_s": get("ensemble.poisson_sample", "busy_s"),
        "ensemble.build_dataset.busy_s": get("ensemble.build_dataset", "busy_s"),
        "ensemble.build_dataset.self_s": get("ensemble.build_dataset", "self_s"),
        "ensemble.template_dataset.busy_s": get("ensemble.template_dataset", "busy_s"),
        "ensemble.template_dataset.self_s": get("ensemble.template_dataset", "self_s"),
        "ensemble.as_matrix.calls": get("ensemble.as_matrix", "calls"),
        "ensemble.as_matrix.busy_s": get("ensemble.as_matrix", "busy_s"),
        "ensemble.write_dataset.busy_s": get("ensemble.write_dataset", "busy_s"),
        "ensemble.write_dataset.bytes": attr_sum("ensemble.write_dataset", "bytes"),
        "ensemble.read_dataset.calls": get("ensemble.read_dataset", "calls"),
        "ensemble.read_dataset.busy_s": get("ensemble.read_dataset", "busy_s"),
        "ensemble.read_dataset.self_s": get("ensemble.read_dataset", "self_s"),
        "neuralnet.backward.calls": get("neuralnet.backward", "calls"),
        "neuralnet.backward.busy_s": get("neuralnet.backward", "busy_s"),
        "neuralnet.adam_step.calls": get("neuralnet.adam_step", "calls"),
        "neuralnet.adam_step.busy_s": get("neuralnet.adam_step", "busy_s"),
        "neuralnet.forward.calls": get("neuralnet.forward", "calls"),
        "neuralnet.forward.busy_s": get("neuralnet.forward", "busy_s"),
        "neuralnet.gflop": flops / 1e9,
        "neuralnet.gflop_per_s": flops / 1e9 / nn_busy if nn_busy else 0.0,
        "experiment.train.busy_s": get("experiment.train", "busy_s"),
        "experiment.train.self_s": get("experiment.train", "self_s"),
        "experiment.evaluate.busy_s": get("experiment.evaluate", "busy_s"),
        "cli.synth.busy_s": get("cli.synth", "busy_s"),
        "cli.sample.busy_s": get("cli.sample", "busy_s"),
        "cli.train.busy_s": get("cli.train", "busy_s"),
        "cli.eval.busy_s": get("cli.eval", "busy_s"),
        "cli.report.busy_s": get("cli.report", "busy_s"),
        "svgplot.busy_s": sum(get(n, "busy_s") for n in svg),
        "trace.spans": len(spans),
        "trace.errors": sum(row["errors"] for row in table.values()),
    }
    return {k: float(v) for k, v in metrics.items()}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
