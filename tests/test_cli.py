import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

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


class TestSampleManifest:
    """A malformed templates manifest ends ``sample`` with exit 2 and one error line."""

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
        assert "templates_manifest.json" in err
        return err

    def test_entry_without_path(self, templates, tmp_path, capsys):
        cfg, tpl = templates
        manifest = json.loads((tpl / "templates_manifest.json").read_text())
        del manifest["templates"][3]["path"]
        (tpl / "templates_manifest.json").write_text(json.dumps(manifest))
        err = self.sample_error(capsys, cfg, tpl, tmp_path)
        assert "templates[3]" in err
        assert "'path'" in err

    def test_missing_templates_key(self, templates, tmp_path, capsys):
        cfg, tpl = templates
        manifest = json.loads((tpl / "templates_manifest.json").read_text())
        del manifest["templates"]
        (tpl / "templates_manifest.json").write_text(json.dumps(manifest))
        assert "'templates'" in self.sample_error(capsys, cfg, tpl, tmp_path)

    @pytest.mark.parametrize("row", ["1,abc", "0,1.0,2"])
    def test_bad_template_row_names_the_file(self, templates, tmp_path, capsys, row):
        cfg, tpl = templates
        template = sorted(tpl.glob("template_*.csv"))[2]
        lines = template.read_text().splitlines()
        lines[-1] = row
        template.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("sample", "--config", cfg, "--templates", tpl, "--out", tmp_path / "ds") == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1
        assert f"{template.name}:{len(lines)}:" in err

    @pytest.mark.parametrize("token, bad", [("kind=template", "kind=bogus"),
                                            ("kind=template", "kind"),
                                            ("e_min=0.0", "e_min=abc")])
    def test_bad_template_header_names_the_file(self, templates, tmp_path, capsys, token, bad):
        cfg, tpl = templates
        template = sorted(tpl.glob("template_*.csv"))[1]
        lines = template.read_text().splitlines()
        assert token in lines[0]
        lines[0] = lines[0].replace(token, bad)
        template.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("sample", "--config", cfg, "--templates", tpl, "--out", tmp_path / "ds") == 2
        err = capsys.readouterr().err
        assert err.startswith("gammasort: error:")
        assert err.count("\n") == 1
        assert f"{template.name}:1: " in err

    def test_manifest_is_a_list(self, templates, tmp_path, capsys):
        cfg, tpl = templates
        manifest = json.loads((tpl / "templates_manifest.json").read_text())
        (tpl / "templates_manifest.json").write_text(json.dumps(manifest["templates"]))
        self.sample_error(capsys, cfg, tpl, tmp_path)


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
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "gammasort.cli", "train", "--scenario", "isotope",
             "--config", str(cfg), "--out", str(tmp_path / "r")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "gammasort: error: linear: training diverged at epoch 1: non-finite parameters\n"
        )
