"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from conftest import make_mock_corpus, make_mock_script
from entropygate import cli, clustering

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_entries(text: str, root: str) -> set[str]:
    """The top-level entries named by the layout block under ``root/`` in
    ``text``: a line indented two spaces past ``root/`` starts with an
    entry's name, or its folder and a file in it; the block ends at a blank
    line or a fence."""
    [(indent, block)] = re.findall(rf"^( *){root}/\n(.*?)(?:\n\n|```)", text, re.S | re.M)
    return {entry.split("/")[0] for entry in re.findall(rf"^{indent}  (\S+)", block, re.M)}


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


def test_output_layout_names_every_entry_of_a_finished_run(tmp_path):
    records = make_mock_corpus(tmp_path / "corpus.jsonl", count=3)
    make_mock_script(tmp_path / "mock.json", records, k=3)
    out = tmp_path / "run"
    args = ["--out", str(out), "--mock-script", str(tmp_path / "mock.json"), "--k", "3",
            "--iterations", "200"]
    assert cli.main(["sample", "--corpus", str(tmp_path / "corpus.jsonl"), *args]) == 0
    for stage in ("cluster", "grade", "report", "curve", "cost"):
        assert cli.main([stage, *args]) == 0
    assert layout_entries(README.read_text(encoding="utf-8"), "run") == {
        path.name for path in out.iterdir()
    }


def test_the_cli_docstring_names_the_same_entries_as_the_readme():
    readme = layout_entries(README.read_text(encoding="utf-8"), "run")
    assert layout_entries(cli.__doc__, "out") == readme
