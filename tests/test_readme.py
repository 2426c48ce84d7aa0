"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from entropygate import cli, clustering

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "(4, 1) 0.217 True\n8\n"
    assert namespace["outcome"].retained == 2
    assert namespace["outcome"].delta == 25.0
    assert namespace["stats"].ci_low <= namespace["stats"].ci_high


def test_row_fields_are_the_constants():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for fields in (cli.SAMPLE_FIELDS, clustering.CALL_FIELDS):
        assert f"`[{', '.join(fields)}]`" in text
