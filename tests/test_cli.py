import argparse
import contextlib
import copy
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gammasort import cli
from gammasort.cli import main
from gammasort.ensemble import TaskKind, build_dataset, read_dataset, write_dataset
from gammasort.experiment import (
    detector_from_config,
    grid_from_config,
    rebin_factor,
    run_config,
)
from gammasort.jsonfile import write_json
from gammasort.neuralnet import LinearParams, save_model
from gammasort.spectra import SpectrumKind

SMALL_GRID_CONFIG = {
    "grid": {
        "isotopes": ["Cesium", "Cobalt"],
        "distances_m": [10.0, 15.0],
        "shieldings": ["Bare", "Steel"],
    },
    "samples_per_config": 3,
    "dwell_s": 1.0,
    "seed": 5,
}

DISTANCES = "positive distances with 4 pi (100 d)^2 >= detector.face_area_cm2"


def write_config(tmp_path, extra=None, name="config.json"):
    config = json.loads(json.dumps(SMALL_GRID_CONFIG))
    if extra:
        config.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv, stdin=None):
    """``gammasort *argv`` in a fresh interpreter, with ``stdin`` as its input."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "gammasort.cli", *map(str, argv)], input=stdin,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


def assert_templates(out, n):
    """``out`` is a template dataset of ``n`` rows at the 86400 s dwell, and nothing else."""
    templates = read_dataset(out)
    assert len(templates) == n
    assert templates.kind is SpectrumKind.EXPECTED_TEMPLATE
    assert templates.dwell_s == 86400.0
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "data.csv", "manifest.json"]


class TestSynth:
    def test_writes_one_template_per_grid_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "tpl"
        assert run("synth", "--config", cfg, "--out", out) == 0
        assert_templates(out, 8)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--config", cfg, "--out", a)
        run("synth", "--config", cfg, "--out", b)
        for path_a in sorted(a.iterdir()):
            assert path_a.read_bytes() == (b / path_a.name).read_bytes(), path_a.name

    def test_empty_grid_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": {"isotopes": []}})
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1

    def test_unknown_isotope_names_offending_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": {"isotopes": ["Cesium", "Unobtainium"]}})
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 2
        assert "Unobtainium" in capsys.readouterr().err

    def test_unknown_material_names_offending_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": {"shieldings": ["Bare", "Adamantium"]}})
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 2
        assert "Adamantium" in capsys.readouterr().err

    def test_line_outside_calibration_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"detector": {"e_max": 1250.0},
                                      "grid": {"isotopes": ["Cesium", "Cobalt"]}})
        out = tmp_path / "tpl"
        out.mkdir()
        assert run("synth", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == (
            "gammasort: error: Cobalt: line at 1332.5 keV is outside calibration range "
            "[0.0, 1250.0] keV\n"
        )
        assert list(out.iterdir()) == []

    def test_line_below_calibration_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"detector": {"e_min": 500.0},
                                      "grid": {"isotopes": ["Barium"]}})
        out = tmp_path / "tpl"
        out.mkdir()
        assert run("synth", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == (
            "gammasort: error: Barium: line at 81.0 keV is outside calibration range "
            "[500.0, 3000.0] keV\n"
        )
        assert list(out.iterdir()) == []

    def test_default_grid_yields_220_templates(self, tmp_path):
        # 5 isotopes x 11 distances x 4 shieldings
        out = tmp_path / "tpl"
        assert run("synth", "--out", out) == 0
        assert_templates(out, 220)


class TestSample:
    def test_requires_templates_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run("sample", "--config", cfg, "--templates", tmp_path / "nope", "--out", tmp_path / "ds")
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_packs_rows_and_records_seed_and_dwell(self, tmp_path):
        cfg = write_config(tmp_path, {"dwell_s": 1.5})
        tpl = tmp_path / "tpl"
        run("synth", "--config", cfg, "--out", tpl)
        ds = tmp_path / "ds"
        assert run("sample", "--config", cfg, "--templates", tpl, "--out", ds) == 0
        rows = (ds / "data.csv").read_text().splitlines()
        assert len(rows) == 8 * 3
        manifest = json.loads((ds / "manifest.json").read_text())
        assert manifest["dwell_s"] == 1.5
        assert manifest["seed"] == 5
        assert manifest["samples_per_config"] == 3

    def test_fixed_seed_rerun_is_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        tpl = tmp_path / "tpl"
        run("synth", "--config", cfg, "--out", tpl)
        a, b = tmp_path / "da", tmp_path / "db"
        run("sample", "--config", cfg, "--templates", tpl, "--out", a)
        run("sample", "--config", cfg, "--templates", tpl, "--out", b)
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()

    def test_rebin_flag_shrinks_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        tpl = tmp_path / "tpl"
        run("synth", "--config", cfg, "--out", tpl)
        ds = tmp_path / "ds256"
        run("sample", "--config", cfg, "--templates", tpl, "--out", ds, "--rebin", 256)
        first = (ds / "data.csv").read_text().splitlines()[0]
        assert len(first.split(",")) == 257  # label + 256 channels

    def test_templates_flag_is_recorded_as_paths_templates(self, tmp_path):
        tpl, ds = tmp_path / "tpl", tmp_path / "ds"
        assert run("synth", "--config", write_config(tmp_path), "--out", tpl) == 0
        assert run("sample", "--templates", tpl, "--out", ds) == 0  # no --config
        config = json.loads((ds / "config.json").read_text())
        assert config["paths"]["templates"] == str(tpl)

    def test_synth_then_sample_is_build_dataset(self, tmp_path):
        overrides = {**SMALL_GRID_CONFIG, "task": "ShieldingID"}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(overrides))
        tpl, ds = tmp_path / "tpl", tmp_path / "ds"
        assert run("synth", "--config", cfg, "--out", tpl) == 0
        assert run("sample", "--config", cfg, "--templates", tpl, "--out", ds) == 0
        config = run_config(overrides)
        samples, seed = config["samples_per_config"], config["seed"]
        built = build_dataset(
            grid_from_config(config), TaskKind(config["task"]), detector_from_config(config),
            samples, config["dwell_s"], seed, rebin_factor(config),
            config["grid"]["background_cps"],
        )
        write_dataset(built, tmp_path / "built", extra={"seed": seed, "samples_per_config": samples})
        for name in ("data.csv", "manifest.json"):
            assert (ds / name).read_bytes() == (tmp_path / "built" / name).read_bytes(), name


class TestConfig:
    def test_seed_and_rebin_flags_leave_defaults_unchanged(self):
        before = copy.deepcopy(cli.DEFAULT_CONFIG)
        config = cli.load_config(argparse.Namespace(config=None, seed=7, rebin=1024))
        assert (config["seed"], config["rebin"]) == (7, 1024)
        assert cli.DEFAULT_CONFIG == before
        config["train"]["epochs"] = 1
        assert cli.DEFAULT_CONFIG == before

    @pytest.mark.parametrize("rebin", [0, -256, "256", 2.5, True])
    def test_rebin_must_be_a_positive_int(self, tmp_path, capsys, rebin):
        cfg = write_config(tmp_path, {"rebin": rebin})
        tpl = tmp_path / "tpl"
        run("synth", "--config", cfg, "--out", tpl)
        capsys.readouterr()
        assert run("sample", "--config", cfg, "--templates", tpl, "--out", tmp_path / "ds") == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error: rebin")
        assert err.count("\n") == 1


class TestEvalInputBoundary:
    """Malformed datasets and models end ``eval`` with exit 2 and one error line."""

    @pytest.fixture()
    def files(self, tmp_path):
        cfg = write_config(tmp_path)
        tpl, ds = tmp_path / "tpl", tmp_path / "ds"
        run("synth", "--config", cfg, "--out", tpl)
        run("sample", "--config", cfg, "--templates", tpl, "--out", ds)
        model = tmp_path / "model.json"
        save_model(model, LinearParams(np.zeros((5, 256)), np.zeros(5)))
        return model, ds

    def eval_error(self, capsys, model, ds):
        capsys.readouterr()
        assert run("eval", "--model", model, "--dataset", ds) == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1
        return err

    def edit_row(self, ds, row, edit):
        lines = (ds / "data.csv").read_text().splitlines()
        lines[row] = edit(lines[row])
        (ds / "data.csv").write_text("\n".join(lines) + "\n")

    def test_well_formed_inputs_evaluate(self, files, capsys):
        model, ds = files
        assert run("eval", "--model", model, "--dataset", ds) == 0

    @pytest.mark.parametrize("label", ["9", "5", "-1"])
    def test_label_outside_class_range(self, files, capsys, label):
        model, ds = files
        self.edit_row(ds, 0, lambda line: label + line[line.index(","):])
        err = self.eval_error(capsys, model, ds)
        assert "data.csv:1:" in err
        assert f"label {label}" in err

    def test_row_of_wrong_width(self, files, capsys):
        model, ds = files
        self.edit_row(ds, 2, lambda line: line.rsplit(",", 1)[0])
        err = self.eval_error(capsys, model, ds)
        assert "data.csv:3:" in err
        assert "256 cells, expected 257" in err

    @pytest.mark.parametrize("cell", ["abc", "", "1.5"])
    def test_cell_that_is_not_a_count_or_label(self, files, capsys, cell):
        model, ds = files
        column = 0 if cell == "1.5" else 7
        self.edit_row(ds, 4, lambda line: ",".join(
            cell if i == column else c for i, c in enumerate(line.split(","))
        ))
        err = self.eval_error(capsys, model, ds)
        assert "data.csv:5: " in err
        assert ("label 1.5" if cell == "1.5" else f"cell 8 is not a number: {cell!r}") in err

    def test_row_count_differs_from_n_items(self, files, capsys):
        model, ds = files
        lines = (ds / "data.csv").read_text().splitlines()
        (ds / "data.csv").write_text("\n".join(lines[:-1]) + "\n")
        err = self.eval_error(capsys, model, ds)
        assert "data.csv" in err
        assert "n_items" in err

    def test_many_extra_rows_name_the_first(self, files, capsys):
        model, ds = files
        lines = (ds / "data.csv").read_text().splitlines()
        (ds / "data.csv").write_text("\n".join(lines * 40) + "\n")
        err = self.eval_error(capsys, model, ds)
        assert f"data.csv:{len(lines) + 1}: " in err
        assert f"n_items of {len(lines)}" in err

    def test_missing_manifest_field(self, files, capsys):
        model, ds = files
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest["source_index"]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        err = self.eval_error(capsys, model, ds)
        assert "manifest.json" in err
        assert "source_index" in err

    @pytest.mark.parametrize("key", ["weights", "bias", "arch"])
    def test_model_missing_a_key(self, files, capsys, key):
        model, ds = files
        doc = json.loads(model.read_text())
        del doc[key]
        model.write_text(json.dumps(doc))
        err = self.eval_error(capsys, model, ds)
        assert f"'{key}'" in err
        assert str(model) in err


class TestTrainEval:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "task": "IsotopeID",
                "rebin": 1024,
                "train": {"epochs": 20},
                "paths": {
                    "train_dataset": str(tmp_path / "train_ds"),
                    "test_dataset": str(tmp_path / "test_ds"),
                },
            },
        )
        tpl = tmp_path / "tpl"
        run("synth", "--config", cfg_path, "--out", tpl)
        run("sample", "--config", cfg_path, "--templates", tpl, "--out", tmp_path / "train_ds", "--seed", 1)
        run("sample", "--config", cfg_path, "--templates", tpl, "--out", tmp_path / "test_ds", "--seed", 2)
        return cfg_path, tmp_path

    def test_train_then_eval(self, pipeline, capsys):
        cfg_path, tmp_path = pipeline
        run_dir = tmp_path / "run"
        assert run("train", "--config", cfg_path, "--out", run_dir) == 0
        assert (run_dir / "model.json").is_file()
        assert (run_dir / "metrics.csv").is_file()
        capsys.readouterr()
        code = run("eval", "--model", run_dir / "model.json", "--dataset", tmp_path / "test_ds",
                   "--out", tmp_path / "ev")
        assert code == 0
        first = capsys.readouterr().out
        code = run("eval", "--model", run_dir / "model.json", "--dataset", tmp_path / "test_ds")
        assert code == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]
        assert (tmp_path / "ev" / "eval.json").is_file()

    def test_eval_channel_mismatch_reported_before_compute(self, pipeline, capsys):
        cfg_path, tmp_path = pipeline
        run_dir = tmp_path / "run"
        run("train", "--config", cfg_path, "--out", run_dir)
        ds256 = tmp_path / "ds256"
        run("sample", "--config", cfg_path, "--templates", tmp_path / "tpl", "--out", ds256, "--rebin", 256)
        capsys.readouterr()
        assert run("eval", "--model", run_dir / "model.json", "--dataset", ds256) == 2
        assert "mismatch" in capsys.readouterr().err

    def test_missing_dataset_paths_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "IsotopeID"})
        assert run("train", "--config", cfg, "--out", tmp_path / "r") == 2
        assert "train_dataset" in capsys.readouterr().err


class TestScenarioCommand:
    def test_scenario_writes_artifacts_and_report_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train": {"epochs": 3},
            "samples_per_config": 1,
            "grid": {"distances_m": [10.0, 15.0]},
        }))
        out = tmp_path / "run"
        assert run("scenario", "isotope", "--config", cfg, "--out", out) == 0
        assert (out / "model.json").is_file()
        assert run("report", "--run", out) == 0
        for name in ("loss.svg", "accuracy.svg", "weights.svg", "per_class_accuracy.csv"):
            assert (out / name).is_file(), name
        svgs = sorted(out.rglob("*.svg"))
        assert len(svgs) == 4
        for svg in svgs:
            ET.parse(svg)  # well-formed XML

    def test_report_on_empty_directory_lists_missing(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", "--run", empty) == 2
        err = capsys.readouterr().err
        assert "missing" in err
        assert "metrics.csv" in err

    def test_gauge_scenario_report_recurses_into_arch_dirs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train": {"epochs": 2},
            "samples_per_config": 1,
            "grid": {"distances_m": [10.0]},
        }))
        out = tmp_path / "gauge"
        assert run("train", "--scenario", "gauge", "--config", cfg, "--out", out) == 0
        assert run("report", "--run", out) == 0
        assert (out / "linear" / "loss.svg").is_file()
        assert (out / "hidden_tanh" / "loss.svg").is_file()

    def test_unknown_scenario_via_train_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "warpdrive"})
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == (
            "gammasort: error: scenario: expected one of ['isotope', 'shielding', 'gauge'], "
            f"or null, got warpdrive (in {cfg})\n"
        )
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        assert run("synth", "--config", tmp_path / "absent.json", "--out", tmp_path / "o") == 2
        assert "not found" in capsys.readouterr().err

    def test_config_may_be_a_pipe(self, tmp_path):
        out = tmp_path / "tpl"
        proc = run_process("synth", "--config", "/dev/stdin", "--out", out,
                           stdin=json.dumps(SMALL_GRID_CONFIG))
        assert proc.returncode == 0, proc.stderr
        assert_templates(out, 8)


class TestSvgContent:
    def test_svg_files_are_self_contained(self, tmp_path):
        from gammasort.svgplot import write_line_svg

        path = tmp_path / "plot.svg"
        write_line_svg(path, [("a", [0, 1, 2], [1.0, 4.0, 2.0])], title="t", x_label="x", y_label="y")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "href" not in text  # no external references

    def test_rejects_mismatched_series(self, tmp_path):
        from gammasort.svgplot import write_line_svg

        with pytest.raises(ValueError):
            write_line_svg(tmp_path / "x.svg", [("a", [1, 2], [1.0])])

    def test_report_escapes_names_read_from_the_run(self, tmp_path):
        name = "Cs<137>&Co"
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            f"epoch,train_loss,test_loss,overall_acc,acc_{name}\n1,0.5,0.4,0.2,0.2\n2,0.3,0.3,0.6,0.6\n"
        )
        (run_dir / "weights_A.csv").write_text(f"# series={name}\nchannel,weight\n0,1.0\n1,0.5\n")
        assert run("report", "--run", run_dir) == 0
        texts = {}
        for svg in sorted(run_dir.glob("*.svg")):
            texts[svg.name] = [t.text for t in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert sorted(texts) == ["accuracy.svg", "loss.svg", "per_class_accuracy.svg", "weights.svg"]
        for chart in ("accuracy.svg", "per_class_accuracy.svg", "weights.svg"):
            assert name in texts[chart], chart


class TestSampleManifest:
    """Templates ``sample`` cannot use end it with exit 2 and one error line."""

    @pytest.fixture()
    def templates(self, tmp_path):
        cfg = write_config(tmp_path)
        tpl = tmp_path / "tpl"
        run("synth", "--config", cfg, "--out", tpl)
        return cfg, tpl

    def sample_error(self, capsys, cfg, tpl, tmp_path):
        capsys.readouterr()
        assert run("sample", "--config", cfg, "--templates", tpl, "--out", tmp_path / "ds") == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1
        assert not (tmp_path / "ds").exists()
        return err

    def edit_manifest(self, tpl, edit):
        manifest = json.loads((tpl / "manifest.json").read_text())
        edit(manifest)
        (tpl / "manifest.json").write_text(json.dumps(manifest))

    def test_source_without_a_field(self, templates, tmp_path, capsys):
        cfg, tpl = templates
        self.edit_manifest(tpl, lambda doc: doc["sources"][3].pop("distance_m"))
        err = self.sample_error(capsys, cfg, tpl, tmp_path)
        assert str(tpl / "manifest.json") in err
        assert "sources[3]: missing key 'distance_m'" in err

    def test_missing_sources_key(self, templates, tmp_path, capsys):
        cfg, tpl = templates
        self.edit_manifest(tpl, lambda doc: doc.pop("sources"))
        err = self.sample_error(capsys, cfg, tpl, tmp_path)
        assert str(tpl / "manifest.json") in err
        assert "missing key 'sources'" in err

    @pytest.mark.parametrize("row", ["1,abc", "0,1.0,2"])
    def test_bad_template_row_names_the_file(self, templates, tmp_path, capsys, row):
        cfg, tpl = templates
        lines = (tpl / "data.csv").read_text().splitlines()
        lines[-1] = row
        (tpl / "data.csv").write_text("\n".join(lines) + "\n")
        err = self.sample_error(capsys, cfg, tpl, tmp_path)
        assert f"{tpl / 'data.csv'}:{len(lines)}: " in err

    def test_sampled_spectrum_among_templates_names_the_file(self, templates, tmp_path, capsys):
        cfg, tpl = templates
        sampled = tmp_path / "sampled"
        assert run("sample", "--config", cfg, "--templates", tpl, "--out", sampled) == 0
        assert self.sample_error(capsys, cfg, sampled, tmp_path) == (
            f"gammasort: error: {sampled / 'manifest.json'}: "
            "kind=sample, templates need kind=template\n"
        )

    def test_templates_of_another_calibration(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        tpl = tmp_path / "tpl"
        synth_cfg = write_config(tmp_path, {"detector": {"n_channels": 512}}, name="synth.json")
        assert run("synth", "--config", synth_cfg, "--out", tpl) == 0
        assert self.sample_error(capsys, cfg, tpl, tmp_path) == (
            f"gammasort: error: {tpl / 'manifest.json'}: templates have calibration "
            "EnergyCalibration(e_min=0.0, e_max=3000.0, n_channels=512), the config's detector "
            "has EnergyCalibration(e_min=0.0, e_max=3000.0, n_channels=1024)\n"
        )

    def test_manifest_is_a_list(self, templates, tmp_path, capsys):
        cfg, tpl = templates
        manifest = json.loads((tpl / "manifest.json").read_text())
        (tpl / "manifest.json").write_text(json.dumps(manifest["sources"]))
        err = self.sample_error(capsys, cfg, tpl, tmp_path)
        assert f"{tpl / 'manifest.json'}: expected a JSON object, got list" in err


class TestConfigChecks:
    """Unknown keys and ill-typed values exit 2 with their dotted path on one line."""

    def config_error(self, capsys, *argv):
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("command", ["scenario", "train"])
    def test_unknown_key_names_dotted_path(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"train": {"epoch": 3}})
        argv = ["scenario", "isotope"] if command == "scenario" else ["train"]
        err = self.config_error(capsys, *argv, "--config", cfg, "--out", tmp_path / "x")
        assert "train.epoch: unknown key" in err

    def test_unknown_paths_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"paths": {"model": "m"}})
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", tmp_path / "x")
        assert "paths.model: unknown key" in err

    def test_ill_typed_epochs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"epochs": "ten"}})
        err = self.config_error(capsys, "train", "--config", cfg, "--out", tmp_path / "x")
        assert "train.epochs: expected int, got 'ten'" in err

    def test_ill_typed_samples_per_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"samples_per_config": "3"})
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", tmp_path / "x")
        assert "samples_per_config: expected int, got '3'" in err

    def test_bool_is_not_an_int(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"width": True}})
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", tmp_path / "x")
        assert "train.width: expected int, got True" in err

    def test_ill_typed_list_item(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": {"distances_m": [10.0, "far"]}})
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", tmp_path / "x")
        assert "grid.distances_m[1]: expected float, got 'far'" in err

    def test_section_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": 5})
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", tmp_path / "x")
        assert "train: expected object, got 5" in err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", tmp_path / "x")
        assert "JSON object" in err

    @pytest.mark.parametrize("argv", [["sample"], ["scenario", "isotope"]])
    def test_negative_seed_flag_names_the_flag(self, tmp_path, capsys, argv):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run(*argv, "--seed", -1, "--out", tmp_path / "x")
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --seed: expected a non-negative integer, got '-1'" in err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_in_config_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": -3})
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", tmp_path / "x")
        assert err == f"gammasort: error: seed: expected a non-negative integer, got -3 (in {cfg})\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, override", [
        ("dwell_s", {"dwell_s": -2.0}),
        ("dwell_s", {"dwell_s": 0.0}),
        ("train.train_dwell_s", {"train": {"train_dwell_s": -1.0}}),
        ("train.train_dwell_s", {"train": {"train_dwell_s": 0}}),
    ])
    def test_dwell_that_is_not_positive_names_the_key(self, tmp_path, capsys, key, override):
        cfg = write_config(tmp_path, override)
        out = tmp_path / "x"
        err = self.config_error(capsys, "scenario", "isotope", "--config", cfg, "--out", out)
        assert err.startswith(f"gammasort: error: {key}: expected a positive dwell, got ")
        assert not out.exists()

    @pytest.mark.parametrize("key, override, expected", [
        ("train.learning_rate", {"train": {"learning_rate": -1e-3}}, "a positive value, got -0.001"),
        ("train.learning_rate", {"train": {"learning_rate": 0.0}}, "a positive value, got 0.0"),
        ("train.beta1", {"train": {"beta1": 1.0}}, "a value in [0, 1), got 1.0"),
        ("train.beta2", {"train": {"beta2": -0.5}}, "a value in [0, 1), got -0.5"),
        ("train.epsilon", {"train": {"epsilon": 0.0}}, "a positive value, got 0.0"),
        ("train.oversample_ratio", {"train": {"oversample_ratio": -1.0}},
         "a non-negative value, got -1.0"),
        ("grid.background_cps", {"grid": {"background_cps": -5.0}},
         "a non-negative value, got -5.0"),
        ("grid.background_cps", {"grid": {"background_cps": -5.0, "include_background": True}},
         "a non-negative value, got -5.0"),
        ("train.width", {"train": {"width": 0}}, "a positive integer, got 0"),
        ("train.epochs", {"train": {"epochs": 0}}, "an integer of at least 1, got 0"),
        ("train.batch_size", {"train": {"batch_size": 0}},
         "an integer of at least 1, or null, got 0"),
        ("samples_per_config", {"samples_per_config": 0}, "an integer of at least 1, got 0"),
        ("detector.n_channels", {"detector": {"n_channels": 0}}, "an integer of at least 1, got 0"),
        ("detector.face_area_cm2", {"detector": {"face_area_cm2": 0.0}},
         "a positive value, got 0.0"),
        ("detector.intrinsic_efficiency", {"detector": {"intrinsic_efficiency": 0.0}},
         "a value in (0, 1], got 0.0"),
        ("detector.resolution_fwhm_frac_662", {"detector": {"resolution_fwhm_frac_662": 1.5}},
         "a value in (0, 1], got 1.5"),
        ("detector.compton_fraction", {"detector": {"compton_fraction": 1.5}},
         "a value in (0, 1], got 1.5"),
        ("grid.activity_bq", {"grid": {"activity_bq": -1.0}}, "a positive value, got -1.0"),
        ("grid.distances_m", {"grid": {"distances_m": [10.0, -1.0]}},
         f"{DISTANCES}, got [10.0, -1.0]"),
        ("detector.e_min", {"detector": {"e_min": 3000.0}},
         "a value in [0, detector.e_max), got 3000.0"),
        ("detector.e_min", {"detector": {"e_min": 100.0, "e_max": 50.0}},
         "a value in [0, detector.e_max), got 100.0"),
        ("rebin", {"rebin": 3}, "a positive divisor of detector.n_channels, got 3"),
        ("rebin", {"rebin": 0}, "a positive divisor of detector.n_channels, got 0"),
        ("rebin", {"rebin": -256}, "a positive divisor of detector.n_channels, got -256"),
        ("rebin", {"rebin": 2048}, "a positive divisor of detector.n_channels, got 2048"),
        ("rebin", {"detector": {"n_channels": 1000}},
         "a positive divisor of detector.n_channels, got 256"),
        ("detector.e_min", {"detector": {"e_min": -500.0}},
         "a value in [0, detector.e_max), got -500.0"),
        ("arch", {"arch": "lineer"}, "one of ['linear', 'hidden_tanh'], got lineer"),
        ("task", {"task": "Isotope"},
         "one of ['IsotopeID', 'ShieldingID', 'GaugeBinary'], got Isotope"),
        # Nearer than about 2.03 cm the default face would take more than the source emits.
        ("grid.distances_m", {"grid": {"distances_m": [1e-300]}}, f"{DISTANCES}, got [1e-300]"),
        ("grid.distances_m", {"grid": {"distances_m": [1e-160]}}, f"{DISTANCES}, got [1e-160]"),
        ("grid.distances_m", {"grid": {"distances_m": [0.001]}}, f"{DISTANCES}, got [0.001]"),
        ("grid.distances_m", {"grid": {"distances_m": [0.1]}, "detector": {"face_area_cm2": 1.3e3}},
         f"{DISTANCES}, got [0.1]"),
    ])
    def test_value_out_of_range_names_the_key(self, tmp_path, capsys, key, override, expected):
        # The small grid and one epoch, so that a run that is not refused ends soon.
        override = {**override,
                    "grid": {**SMALL_GRID_CONFIG["grid"], **override.get("grid", {})},
                    "train": {"epochs": 1, **override.get("train", {})}}
        cfg = write_config(tmp_path, override)
        out = tmp_path / "x"
        err = self.config_error(capsys, "scenario", "gauge", "--config", cfg, "--out", out)
        assert err == f"gammasort: error: {key}: expected {expected} (in {cfg})\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, override, expected", [
        ("rebin", {"rebin": 3}, "a positive divisor of detector.n_channels, got 3"),
        ("rebin", {"rebin": 0}, "a positive divisor of detector.n_channels, got 0"),
        ("detector.e_min", {"detector": {"e_min": 3000.0}},
         "a value in [0, detector.e_max), got 3000.0"),
        ("detector.e_min", {"detector": {"e_min": -500.0}},
         "a value in [0, detector.e_max), got -500.0"),
        ("grid.distances_m", {"grid": {"distances_m": [1e-300]}}, f"{DISTANCES}, got [1e-300]"),
        ("grid.distances_m", {"grid": {"distances_m": [1e-160]}}, f"{DISTANCES}, got [1e-160]"),
        ("grid.distances_m", {"grid": {"distances_m": [0.001]}}, f"{DISTANCES}, got [0.001]"),
    ])
    def test_synth_refuses_a_value_out_of_range_by_its_key(
        self, tmp_path, capsys, key, override, expected
    ):
        cfg = write_config(tmp_path, override)
        out = tmp_path / "tpl"
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", out)
        assert err == f"gammasort: error: {key}: expected {expected} (in {cfg})\n"
        assert not out.exists()

    def test_synth_refuses_a_photopeak_narrower_than_a_channel(self, tmp_path, capsys):
        # The default grid: its depleted-uranium shield emits at 766.4 keV.
        cfg = tmp_path / "narrow.json"
        cfg.write_text(json.dumps({"detector": {"n_channels": 64,
                                                "resolution_fwhm_frac_662": 0.02},
                                   "rebin": 64}))
        out = tmp_path / "tpl"
        err = self.config_error(capsys, "synth", "--config", cfg, "--out", out)
        assert err == (
            "gammasort: error: DepletedUranium: line at 766.4 keV: its photopeak (sigma 6.05 keV)"
            " is narrower than a 46.9 keV channel, and 0.20% of its counts would be lost\n"
        )
        assert not out.exists()

    def test_int_for_float_and_null_batch_size_are_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {"distances_m": [10, 15]},
                                      "train": {"batch_size": None, "learning_rate": 1}})
        out = tmp_path / "tpl"
        assert run("synth", "--config", cfg, "--out", out) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["grid"]["distances_m"] == [10.0, 15.0]
        assert config["train"]["batch_size"] is None
        assert config["train"]["learning_rate"] == 1.0


class TestScenarioHonoursConfig:
    def test_train_scenario_uses_config_rebin_and_train_section(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"isotopes": ["Cesium", "Cobalt"], "distances_m": [12.0],
                     "shieldings": ["Bare", "Steel"]},
            "train": {"epochs": 2, "learning_rate": 0.05},
            "samples_per_config": 1,
        }))
        out = tmp_path / "run"
        assert run("train", "--scenario", "isotope", "--config", cfg, "--rebin", 1024,
                   "--seed", 9, "--out", out) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["n_channels"] == 1024
        assert model["train_config"]["learning_rate"] == 0.05
        config = json.loads((out / "config.json").read_text())
        assert config["scenario"] == "isotope"
        assert (config["rebin"], config["seed"]) == (1024, 9)
        assert config["train"]["learning_rate"] == 0.05
        assert config["grid"]["isotopes"] == ["Cesium", "Cobalt"]
        assert config["grid"]["distances_m"] == [12.0]
        assert config["grid"]["shieldings"] == ["Bare", "Steel"]


class TestReportInputBoundary:
    @pytest.mark.parametrize("text", ["", "epoch,train_loss\n",
                                      "epoch,train_loss,test_loss,overall_acc\n",
                                      "epoch,train_loss,test_loss,overall_acc\n1,0.5,0.5\n",
                                      "epoch,train_loss,test_loss,overall_acc\n1,0.5,0.5,0.2\n",
                                      "epoch,train_loss,test_loss,overall_acc\n1,0.5,x,0.2\n"])
    def test_malformed_metrics_csv(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(text)
        assert run("report", "--run", run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1
        assert "metrics.csv" in err

    @pytest.mark.parametrize("text, where", [("# series=A\nchannel,weight\n0,1.0,3\n", ":3:"),
                                             ("# series=A\nchannel,weight\n0,x\n", ":3:"),
                                             ("# series=A\nchannel,weight\n", ": no weight rows"),
                                             ("", ": no weight rows")])
    def test_malformed_weights_csv(self, tmp_path, capsys, text, where):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            "epoch,train_loss,test_loss,overall_acc,acc_A\n1,0.5,0.5,0.2,0.2\n"
        )
        (run_dir / "weights_A.csv").write_text(text)
        assert run("report", "--run", run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1
        assert f"weights_A.csv{where}" in err


    def test_bad_weights_file_leaves_no_partial_report(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            "epoch,train_loss,test_loss,overall_acc,acc_A\n1,0.5,0.5,0.2,0.2\n"
        )
        (run_dir / "weights_A.csv").write_text("# series=A\nchannel,weight\n0,1.0\n")
        (run_dir / "weights_B.csv").write_text("# series=B\nchannel,weight\n0,1.0,3\n")
        assert run("report", "--run", run_dir) == 2
        assert "weights_B.csv:3: 3 cells, expected 2" in capsys.readouterr().err
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "metrics.csv", "weights_A.csv", "weights_B.csv"
        ]
        assert run("report", "--run", run_dir, "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_bad_file_in_one_arch_dir_leaves_no_report_in_any(self, tmp_path, capsys):
        run_dir = tmp_path / "gauge"
        for arch, row in (("linear", "0,1.0"), ("hidden_tanh", "0,x")):
            (run_dir / arch).mkdir(parents=True)
            (run_dir / arch / "metrics.csv").write_text(
                "epoch,train_loss,test_loss,overall_acc,acc_A\n1,0.5,0.5,0.2,0.2\n"
            )
            (run_dir / arch / "weights_A.csv").write_text(f"# series=A\nchannel,weight\n{row}\n")
        assert run("report", "--run", run_dir) == 2
        assert "weights_A.csv:3: cell 2 is not a number: 'x'" in capsys.readouterr().err
        assert not list(run_dir.rglob("*.svg"))

    @pytest.mark.parametrize("row, cause", [("1,0.5,0.5,0.2", "4 cells, expected 5"),
                                            ("1,0.5,0.5,0.2,0.2,7", "6 cells, expected 5"),
                                            ("1,0.5,oops,0.2,0.2", "cell 3 is not a number")])
    def test_bad_metrics_row_names_the_line(self, tmp_path, capsys, row, cause):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            f"epoch,train_loss,test_loss,overall_acc,acc_A\n1,0.5,0.5,0.2,0.2\n{row}\n"
        )
        assert run("report", "--run", run_dir) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"metrics.csv:3: {cause}" in err


class TestDivergence:
    def test_train_reports_the_epoch_on_one_line(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 3, "learning_rate": 1e308}}))
        # A fresh interpreter, so that numpy's RuntimeWarnings would reach stderr.
        proc = run_process("train", "--scenario", "isotope", "--config", cfg,
                           "--out", tmp_path / "r")
        assert proc.returncode == 2
        assert proc.stderr == (
            "gammasort: error: linear: training diverged at epoch 1: non-finite parameters\n"
        )

    def test_gauge_reports_the_first_architecture(self, tmp_path):
        # Both architectures diverge, side by side; the first in order reports,
        # and the run directory is left as training them in turn leaves it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 3, "learning_rate": 1e308}}))
        proc = run_process("scenario", "gauge", "--config", cfg, "--out", tmp_path / "r")
        assert proc.returncode == 2
        assert proc.stderr == (
            "gammasort: error: linear: training diverged at epoch 1: logits must be finite\n"
        )
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["config.json", "linear"]
        assert not list((tmp_path / "r" / "linear").iterdir())

    def test_a_child_that_dies_is_one_line(self, tmp_path, capsys, monkeypatch):
        from gammasort import experiment

        original, parent = experiment.train, os.getpid()

        def dying(train_ds, test_ds, initial, section, seed):
            if initial.arch == "linear" and os.getpid() != parent:  # in the forked child
                os._exit(3)
            return original(train_ds, test_ds, initial, section, seed)

        monkeypatch.setattr(experiment, "train", dying)
        cfg = write_config(tmp_path, {"train": {"epochs": 2}})
        assert run("scenario", "gauge", "--config", cfg, "--out", tmp_path / "r") == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "gammasort: error: linear: the training process exited with status 3 without a result\n"
        )
        assert captured.out == ""
        with pytest.raises(ChildProcessError):  # reaped: no child and no zombie is left
            os.waitpid(-1, os.WNOHANG)


# A grid small enough that each fuzzed command runs in milliseconds.
TINY_CONFIG = {
    "detector": {"n_channels": 256},
    "rebin": 256,
    "grid": {"isotopes": ["Cesium", "Cobalt"], "distances_m": [10.0], "shieldings": ["Bare"]},
    "samples_per_config": 2,
    "seed": 3,
}

# The fields each reader checks, as dotted keys into its document.
CHECKED_FIELDS = {
    "model.json": ["arch", "weights", "bias", "weights[1][2]", "bias[0]"],
    "manifest.json": [
        "task", "kind", "data_csv", "n_items", "dwell_s", "calibration", "calibration.e_min",
        "calibration.e_max", "calibration.n_channels", "sources", "sources[1]",
        "sources[1].isotope", "sources[0].activity_bq", "sources[0].distance_m",
        "sources[0].material", "sources[0].thickness_cm", "sources[0].include_background",
        "source_index", "source_index[2]",
    ],
    "tpl/manifest.json": [
        "task", "kind", "data_csv", "n_items", "dwell_s", "calibration", "calibration.e_min",
        "calibration.e_max", "calibration.n_channels", "sources", "sources[1]",
        "sources[0].isotope", "sources[0].activity_bq", "sources[0].distance_m",
        "sources[1].material", "sources[1].thickness_cm", "sources[0].include_background",
        "source_index", "source_index[1]",
    ],
    "config.json": [
        "detector", "detector.n_channels", "rebin", "grid", "grid.isotopes", "grid.isotopes[1]",
        "grid.distances_m", "grid.distances_m[0]", "samples_per_config", "seed",
    ],
}

# A float field of each document: config, model and dataset manifest.
NUMBER_FIELDS = [("config.json", "grid.distances_m[0]"), ("model.json", "bias[0]"),
                 ("manifest.json", "dwell_s")]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def json_type(value) -> str:
    types = {bool: "boolean", int: "number", float: "number", str: "string", list: "array",
             dict: "object", type(None): "null"}
    return types[type(value)]


def replaced(doc, key, value):
    """A copy of ``doc`` with the field at the dotted ``key`` set to ``value``, and the old value."""
    doc = copy.deepcopy(doc)
    *parents, last = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", key)]
    target = doc
    for part in parents:
        target = target[part]
    old, target[last] = target[last], value
    return doc, old


class TestJsonReadersFuzz:
    """A field of another JSON type in any document a command reads ends it with
    exit 2 and one error line that names the file and the dotted key."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        cfg = root / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        assert run("synth", "--config", cfg, "--out", root / "tpl") == 0
        assert run("sample", "--config", cfg, "--templates", root / "tpl", "--out", root / "ds") == 0
        save_model(root / "model.json", LinearParams(np.zeros((5, 256)), np.zeros(5)))
        return root

    def command(self, inputs, name, work):
        """Copy the inputs into ``work``, and the argv that reads ``work``'s copy of ``name``."""
        shutil.copytree(inputs, work, dirs_exist_ok=True)
        argv = {
            "model.json": ["eval", "--model", work / "model.json", "--dataset", work / "ds"],
            "manifest.json": ["eval", "--model", work / "model.json", "--dataset", work / "ds"],
            "tpl/manifest.json": ["sample", "--config", work / "config.json",
                                  "--templates", work / "tpl", "--out", work / "out"],
            "config.json": ["synth", "--config", work / "config.json", "--out", work / "out"],
        }[name]
        return argv, work / ("ds/manifest.json" if name == "manifest.json" else name)

    def error(self, argv) -> str:
        with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()):
            assert run(*argv) == 2
        return err.getvalue()

    @given(field=st.sampled_from([(n, k) for n, keys in CHECKED_FIELDS.items() for k in keys]),
           value=JSON_VALUES)
    @example(field=("model.json", "weights"), value={"a": 1})
    @example(field=("model.json", "bias"), value="abc")
    @example(field=("model.json", "weights[1][2]"), value=None)
    @example(field=("manifest.json", "sources[0].distance_m"), value=True)
    @example(field=("manifest.json", "sources[0].include_background"), value="yes")
    @example(field=("manifest.json", "dwell_s"), value="abc")
    @example(field=("tpl/manifest.json", "sources[0].distance_m"), value=True)
    @example(field=("tpl/manifest.json", "sources[0].activity_bq"), value="abc")
    @settings(max_examples=60, deadline=None)
    def test_field_of_another_type(self, inputs, field, value):
        name, key = field
        with tempfile.TemporaryDirectory() as tmp:
            argv, path = self.command(inputs, name, Path(tmp))
            doc, old = replaced(json.loads(path.read_text()), key, value)
            assume(json_type(value) != json_type(old))
            path.write_text(json.dumps(doc))
            err = self.error(argv)
        assert err.startswith("gammasort: error: ")
        assert err.count("\n") == 1
        assert str(path) in err
        assert key in err

    @pytest.mark.parametrize("name", sorted(CHECKED_FIELDS))
    def test_file_that_is_not_json(self, inputs, name, tmp_path):
        argv, path = self.command(inputs, name, tmp_path)
        path.write_text("{'a': 1}")
        err = self.error(argv)
        assert err.startswith(f"gammasort: error: {path}: Expecting property name")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    @pytest.mark.parametrize("name, key", NUMBER_FIELDS)
    def test_non_json_number_is_refused(self, inputs, tmp_path, name, key, token):
        argv, path = self.command(inputs, name, tmp_path)
        doc, _ = replaced(json.loads(path.read_text()), key, "@token@")
        path.write_text(json.dumps(doc).replace('"@token@"', token))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.error(argv)
        assert err == f"gammasort: error: {path}: {token} is not a JSON number\n"
        assert caught == []

    @pytest.mark.parametrize("name, key", NUMBER_FIELDS)
    def test_integer_too_large_for_a_float_is_refused(self, inputs, tmp_path, name, key):
        argv, path = self.command(inputs, name, tmp_path)
        doc, _ = replaced(json.loads(path.read_text()), key, 10**400)
        path.write_text(json.dumps(doc))
        err = self.error(argv)
        assert err.startswith("gammasort: error: ")
        assert err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_writer_emits_no_non_json_number(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "doc.json", {"dwell_s": value})
        assert not (tmp_path / "doc.json").exists()

    @pytest.mark.parametrize("key, value, expected", [
        ("bias[0]", 10**400, "expected float, got an integer too large for a float"),
        ("weights[1][2]", "x", "expected float, got 'x'"),
    ], ids=["huge_int", "string"])
    def test_model_array_cell_is_named(self, inputs, tmp_path, key, value, expected):
        argv, path = self.command(inputs, "model.json", tmp_path)
        doc, _ = replaced(json.loads(path.read_text()), key, value)
        path.write_text(json.dumps(doc))
        assert self.error(argv) == f"gammasort: error: {path}: {key}: {expected}\n"

    @pytest.mark.parametrize("bias", [["abc"] * 5, [[0.0]] * 5, [{}] * 5, [None] * 5, [0.0] * 4])
    def test_model_array_the_constructor_rejects(self, inputs, bias, tmp_path):
        argv, path = self.command(inputs, "model.json", tmp_path)
        doc, _ = replaced(json.loads(path.read_text()), "bias", bias)
        path.write_text(json.dumps(doc))
        err = self.error(argv)
        assert err.startswith(f"gammasort: error: {path}: ")
        assert err.count("\n") == 1


# The first data line of each CSV file a command reads; the lines before it
# are ``#`` comments and the header.
CSV_FIRST_ROW = {"ds/data.csv": 0, "run/metrics.csv": 1, "run/weights_class_1.csv": 2}

# Corruptions of one cell (a non-number, a non-finite number) or of one row
# (a dropped or an extra cell), as (kind, text).
CSV_CORRUPTIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(
        ["x", "", "1.0.0", "1_0", "0x1f", "--1", "1e", "nan", "inf", "-inf", "1e999"])),
    st.tuples(st.just("drop"), st.none()),
    st.tuples(st.just("extra"), st.sampled_from(["0", "1.5", "x"])),
)


class TestCsvReadersFuzz:
    """A corrupt cell or row in any CSV file a command reads ends it with exit 2,
    one error line that names the file and line, and no output written."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("csv_inputs")
        cfg = root / "config.json"
        cfg.write_text(json.dumps({
            **TINY_CONFIG, "train": {"epochs": 4},
            "paths": {"train_dataset": str(root / "ds"), "test_dataset": str(root / "ds")},
        }))
        assert run("synth", "--config", cfg, "--out", root / "tpl") == 0
        assert run("sample", "--config", cfg, "--templates", root / "tpl", "--out", root / "ds") == 0
        assert run("train", "--config", cfg, "--out", root / "run") == 0
        return root

    @given(name=st.sampled_from(sorted(CSV_FIRST_ROW)), row=st.integers(0, 3),
           column=st.integers(0, 300), corruption=CSV_CORRUPTIONS)
    @example(name="run/metrics.csv", row=0, column=1, corruption=("replace", "nan"))
    @example(name="run/metrics.csv", row=3, column=1, corruption=("replace", "inf"))
    @example(name="ds/data.csv", row=2, column=100, corruption=("replace", "-inf"))
    @example(name="ds/data.csv", row=1, column=0, corruption=("drop", None))
    @example(name="run/weights_class_1.csv", row=0, column=2, corruption=("extra", "0"))
    @settings(max_examples=60, deadline=None)
    def test_corrupt_cell_or_row(self, inputs, name, row, column, corruption):
        kind, text = corruption
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for part in ("ds", "run"):
                shutil.copytree(inputs / part, work / part)
            path = work / name
            lines = path.read_text().splitlines()
            line = CSV_FIRST_ROW[name] + row
            cells = lines[line].split(",")
            if kind == "extra":
                cells.insert(column % (len(cells) + 1), text)
            elif kind == "drop":
                del cells[column % len(cells)]
            else:
                cells[column % len(cells)] = text
            lines[line] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            out = work / "out"
            argv = (["eval", "--model", work / "run" / "model.json", "--dataset", work / "ds"]
                    if name == "ds/data.csv" else ["report", "--run", work / "run"])
            with contextlib.redirect_stderr(io.StringIO()) as err:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert run(*argv, "--out", out) == 2
            assert not out.exists()
        err = err.getvalue()
        assert err.startswith(f"gammasort: error: {path}:{line + 1}: ")
        assert err.count("\n") == 1
