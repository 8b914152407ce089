import argparse
import copy
import json

import numpy as np
import pytest

from gammasort import cli
from gammasort.cli import main
from gammasort.neuralnet import LinearParams, save_model

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


def write_config(tmp_path, extra=None, name="config.json"):
    config = json.loads(json.dumps(SMALL_GRID_CONFIG))
    if extra:
        config.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_one_template_per_grid_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "tpl"
        assert run("synth", "--config", cfg, "--out", out) == 0
        assert len(list(out.glob("template_*.csv"))) == 8
        manifest = json.loads((out / "templates_manifest.json").read_text())
        assert manifest["n_templates"] == 8
        assert manifest["dwell_s"] == 86400.0
        assert (out / "config.json").is_file()

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

    def test_default_grid_yields_220_templates(self, tmp_path):
        # 5 isotopes x 11 distances x 4 shieldings
        out = tmp_path / "tpl"
        assert run("synth", "--out", out) == 0
        assert len(list(out.glob("template_*.csv"))) == 220


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
        assert "255 counts, expected 256" in err

    def test_row_count_differs_from_n_items(self, files, capsys):
        model, ds = files
        lines = (ds / "data.csv").read_text().splitlines()
        (ds / "data.csv").write_text("\n".join(lines[:-1]) + "\n")
        err = self.eval_error(capsys, model, ds)
        assert "data.csv" in err
        assert "n_items" in err

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
            "scenario_overrides": {
                "epochs": 3,
                "samples_per_config": 1,
                "distances_m": [10.0, 15.0],
            }
        }))
        out = tmp_path / "run"
        assert run("scenario", "isotope", "--config", cfg, "--out", out) == 0
        assert (out / "model.json").is_file()
        assert run("report", "--run", out) == 0
        for name in ("loss.svg", "accuracy.svg", "weights.svg", "per_class_accuracy.csv"):
            assert (out / name).is_file(), name

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
            "scenario_overrides": {
                "epochs": 2,
                "samples_per_config": 1,
                "distances_m": [10.0],
            }
        }))
        out = tmp_path / "gauge"
        assert run("train", "--scenario", "gauge", "--config", cfg, "--out", out) == 0
        assert run("report", "--run", out) == 0
        assert (out / "linear" / "loss.svg").is_file()
        assert (out / "hidden_tanh" / "loss.svg").is_file()

    def test_unknown_scenario_via_train_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "warpdrive"})
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == 2
        assert "warpdrive" in capsys.readouterr().err

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        assert run("synth", "--config", tmp_path / "absent.json", "--out", tmp_path / "o") == 2
        assert "not found" in capsys.readouterr().err


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
