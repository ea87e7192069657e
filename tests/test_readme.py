import pathlib
import re
import shlex

from narrowlab import cli, limits

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 1"
    assert len(lines) == 4


def test_command_line_tour_writes_only_named_files(capsys, tmp_path,
                                                   monkeypatch):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Command line tour"):text.index("## Library tour")]
    blocks = re.findall(r"```sh\n(.*?)```", tour, re.S)
    commands = [shlex.split(line, comments=True)
                for line in "".join(blocks).replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "narrowlab" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
    capsys.readouterr()
    named = {argv[i + 1] for argv in commands
             for i, arg in enumerate(argv) if arg == "--out"}
    assert {path.name for path in tmp_path.iterdir()} == named


def test_cap_table_lists_every_limit_with_its_value():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| Cap | Value |"):]
    table = table[:table.index("\n\n")]
    cells = dict(re.findall(r"^\| `(\w+)` \| ([\d,^]+) \|", table, re.M))
    caps = {name: value for name, value in vars(limits).items()
            if name.isupper()}
    assert set(cells) == set(caps)
    for name, cell in cells.items():
        base, _, exponent = cell.replace(",", "").partition("^")
        value = int(base) ** int(exponent) if exponent else int(base)
        assert value == caps[name], name
