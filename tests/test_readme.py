"""The examples in README.md still run and print what README says they print."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from bergman_orlicz import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str, lang: str, nth: int = 0) -> str:
    """The nth fenced block of the given language after a heading line."""
    body = README[README.index(heading + "\n"):]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)[nth]


def test_readme_examples_run_as_documented(capsys):
    exec(_block_after("## Library quick start", "python"), {})
    norm_line, terms_line = capsys.readouterr().out.splitlines()
    assert float(norm_line) == pytest.approx(0.7071067811865476, rel=1e-9)
    terms = ast.literal_eval(terms_line)
    assert list(terms) == [(3,)]
    assert terms[(3,)] == pytest.approx(2.0 / 3.0, abs=1e-15)

    argv = shlex.split(_block_after("### `bol norm`", "sh"))
    assert argv[0] == "bol"
    assert cli.main(argv[1:]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    documented = json.loads(_block_after("### `bol norm`", "json"))
    assert doc["iterations"] == documented["iterations"] == 34
    assert doc["rule"] == documented["rule"] == "product:n=1,alpha=0,degree=32,nodes=297"
    assert doc["lambda_star"] == pytest.approx(documented["lambda_star"], rel=1e-12)
    assert set(doc) == set(documented)
