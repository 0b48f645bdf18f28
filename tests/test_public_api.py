"""The package's public names resolve, and the README's examples run."""

import re
import shlex
from pathlib import Path

import byzrank
from byzrank.cli import main

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


def test_readme_cli_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    # each "$ " line of a block is a command, and the lines up to the next
    # one are what it prints; "cat FILE" shows a file the later lines read
    steps = [step for block in re.findall(r"```\n(.*?)```", section, re.S)
             for step in re.split(r"^\$ ", block, flags=re.M)[1:]]
    monkeypatch.chdir(tmp_path)
    ran = 0
    for step in steps:
        command, *shown = step.splitlines()
        program, *argv = shlex.split(command)
        if program == "cat":
            Path(*argv).write_text("\n".join(shown) + "\n", encoding="utf-8")
            continue
        assert program == "byzrank"
        assert main(argv) == 0, command
        assert capsys.readouterr().out.splitlines() == shown, command
        ran += 1
    assert ran == 5


def test_readme_cites_only_tests_that_exist():
    # a renamed or deleted test must not leave the README citing it; file
    # names such as test_lemmas.py and test_output.txt are not citations
    cited = {name for name, ext in re.findall(r"\b(test_\w+)(\.\w+)?", README.read_text("utf-8"))
             if not ext}
    defined = {name for path in README.parent.joinpath("tests").glob("*.py")
               for name in re.findall(r"^\s*def (test_\w+)", path.read_text("utf-8"), re.M)}
    assert cited
    assert sorted(cited - defined) == []
