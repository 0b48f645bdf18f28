"""The package's public names resolve, and the README's library example runs."""

import re
from pathlib import Path

import byzrank

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(set(byzrank.__all__)) == len(byzrank.__all__)
    assert [name for name in byzrank.__all__ if not hasattr(byzrank, name)] == []


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print line's trailing comment states what it prints
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    claims = [line.split("#", 1)[1].strip() for line in prints]
    assert len(printed) == len(claims) == 3
    for got, claim in zip(printed, claims):
        assert claim.startswith(got)
