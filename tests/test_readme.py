import json
import re
import shutil
from pathlib import Path

import pytest

from gammasort import cli, nucleardata
from gammasort.ensemble import read_dataset
from gammasort.experiment import DEFAULT_CONFIG
from gammasort.spectra import read_csv_table

README = Path(__file__).resolve().parents[1] / "README.md"


def test_json_block_is_the_default_config():
    # README restates the defaults that every run config is merged over.
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == DEFAULT_CONFIG


def test_old_manifest_message_is_the_one_read_dataset_raises(tmp_path):
    # README quotes the refusal of a manifest written before data.npy, with <manifest> for its path.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"data_csv": "data.csv"}))
    with pytest.raises(ValueError) as info:
        read_dataset(manifest)
    quoted = str(info.value).replace(str(manifest), "<manifest>")
    assert f"`{quoted}`" in " ".join(README.read_text().split())


@pytest.mark.parametrize("row, quoted, values", [
    ("1,2,3", "<n> cells, expected <m>", {"<n>": "3", "<m>": "2"}),
    ("1,x", "cell <k> is not a number: '<text>'", {"<k>": "2", "<text>": "x"}),
    ("1,nan", "cell <k> is not a finite number: '<text>'", {"<k>": "2", "<text>": "nan"}),
], ids=["width", "number", "finite"])
def test_csv_messages_are_the_ones_read_csv_table_raises(tmp_path, row, quoted, values):
    # README quotes each refusal of a numeric CSV row with placeholders; on a
    # three-line file (a comment, a header, the bad row) read_csv_table
    # raises the quoted text with the placeholders filled in.
    quoted = f"<file>:<line>: {quoted}"
    assert f"`{quoted}`" in " ".join(README.read_text().split())
    path = tmp_path / "t.csv"
    path.write_text(f"# c\na,b\n{row}\n")
    with pytest.raises(ValueError) as info:
        read_csv_table(path)
    for placeholder, value in {"<file>": str(path), "<line>": "3", **values}.items():
        quoted = quoted.replace(placeholder, value)
    assert str(info.value) == quoted


# Each README quote of a refused GAMMASORT_DATA_DIR table: the bundled table
# replaced, its text, what synth's error line holds before the quote, and the
# quote's placeholders other than <file>.
OVERRIDE_TABLE_ERRORS = {
    "<file>:<line>: header lacks the columns [<names>]": (
        "attenuation_steel.csv", "energy_keV,mu\n10,1.0\n", "grid: ",
        {"<line>": "1", "<names>": "'mu_per_cm'"}),
    "<file>:<line>: <cause>": (
        "nuclide_lines.csv", "isotope,energy_keV,intensity\nCesium,abc,0.851\n", "grid: ",
        {"<line>": "2", "<cause>": "cell 2 is not a number: 'abc'"}),
    "<file>: <cause>": (
        "attenuation_steel.csv", "energy_keV,mu_per_cm\n10,2.0\n10,1.0\n", "grid: ",
        {"<cause>": "attenuation energies must be strictly increasing"}),
    "<file>: attenuation coefficients must be positive": (
        "attenuation_steel.csv", "energy_keV,mu_per_cm\n10,2.0\n20,-0.5\n", "grid: ", {}),
    "<file>: <isotope>: intensity <value> outside (0, 1]": (
        "nuclide_lines.csv", "isotope,energy_keV,intensity\nCesium,661.7,1.851\n", "grid: ",
        {"<isotope>": "Cesium", "<value>": "1.851"}),
    "<isotope>: <material>: energy <E> keV outside attenuation table [<low>, <high>]": (
        "attenuation_steel.csv", "energy_keV,mu_per_cm\n10,2.0\n500,1.0\n", "",
        {"<isotope>": "Cesium", "<material>": "Steel", "<E>": "661.7", "<low>": "10.0",
         "<high>": "500.0"}),
}


@pytest.mark.parametrize("quoted", list(OVERRIDE_TABLE_ERRORS))
def test_override_table_messages_are_the_ones_synth_prints(tmp_path, monkeypatch, capsys, quoted):
    # On a copy of the bundled tables with one replaced, synth exits 2 with
    # one error line that ends in the quote, its placeholders filled in.
    assert f"`{quoted}`" in " ".join(README.read_text().split())
    name, text, before, values = OVERRIDE_TABLE_ERRORS[quoted]
    for bundled in nucleardata._BUNDLED_DIR.glob("*.csv"):
        shutil.copy(bundled, tmp_path)
    (tmp_path / name).write_text(text)
    monkeypatch.setenv(nucleardata.DATA_DIR_ENV_VAR, str(tmp_path))
    assert cli.main(["synth", "--out", str(tmp_path / "out")]) == 2
    for placeholder, value in {"<file>": str(tmp_path / name), **values}.items():
        quoted = quoted.replace(placeholder, value)
    assert capsys.readouterr().err == f"gammasort: error: {before}{quoted}\n"
