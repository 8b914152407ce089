import json
import re
from pathlib import Path

import pytest

from gammasort.ensemble import read_dataset
from gammasort.experiment import DEFAULT_CONFIG

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
