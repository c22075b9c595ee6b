"""The README's code blocks run against the package as it is."""

import re
from pathlib import Path

import pytest

from limitomo import loads_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


INI, PYTHON = _blocks("ini"), _blocks("python")


def test_readme_has_ini_and_python_blocks():
    assert INI and PYTHON


@pytest.mark.parametrize("text", INI, ids=[f"block{i}" for i in range(1, len(INI) + 1)])
def test_readme_ini_block_loads(text):
    loads_config(text)


@pytest.mark.parametrize("code", PYTHON, ids=[f"block{i}" for i in range(1, len(PYTHON) + 1)])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
