import json
import re
from pathlib import Path

import pytest

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
