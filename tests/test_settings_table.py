"""Every value flag of the CLI has a row in the README's settings table, and
every row names a flag the parser has, its numeric default, and a test that
exists. A flag that names a stage's input or output file is not a setting;
those are listed here, once."""

import argparse
import ast
from pathlib import Path

from quotematch.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
HEADER = "| Subcommand | Flag | Default | Paper step or rule | Pinned by |"

FILE_PATHS = {
    (command, flag)
    for command, flags in {
        "corpus build": "--input --out --report",
        "corpus merge": "--a --b --out --report",
        "corpus filter": "--corpus --exclude --out --report",
        "index": "--corpus --out",
        "scan": "--index --corpus --timelines --out-stats --out-matches",
        "label": "--stats --out",
        "features": "--ties --out-space --out-vectors",
        "train": "--space --vectors --labeled --out-model --out-metrics",
        "report": "--model --space --out-dir",
        "synth": "--out-dir",
    }.items()
    for flag in flags.split()
}


def _options() -> dict[tuple[str, str], argparse.Action]:
    """(subcommand, flag) -> action, for every option but ``--help``."""
    options = {}

    def walk(parser: argparse.ArgumentParser, command: str) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{command} {name}".strip())
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                options[command, action.option_strings[0]] = action

    walk(build_parser(), "")
    return options


def _rows() -> list[list[str]]:
    """The settings table's cells, backticks dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = []
    for line in text[text.index(HEADER) :].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def _test_exists(node_id: str) -> bool:
    """A top-level test function of the file, with a literal parameter id if one is given."""
    path, _, name = node_id.partition("::")
    name, _, param = name.partition("[")
    source = (ROOT / path).read_text(encoding="utf-8") if (ROOT / path).is_file() else ""
    defined = {n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    return name in defined and (not param or f'"{param.rstrip("]")}"' in source)


def test_every_value_flag_has_a_settings_row():
    options, rows = _options(), _rows()
    assert rows and all(len(row) == 5 for row in rows)
    named = [(row[0], row[1]) for row in rows]
    assert len(named) == len(set(named)), "a flag has two rows"
    assert sorted(FILE_PATHS - set(options)) == [], "a listed file-path flag is gone"
    assert sorted(set(options) - FILE_PATHS - set(named)) == [], "value flags without a row"
    assert [f for f in named if f not in options or f in FILE_PATHS] == [], "rows of no value flag"
    assert [row[4] for row in rows if not _test_exists(row[4])] == [], "pinning tests missing"
    assert [
        (row[0], row[1], row[2])
        for row in rows
        if type(options[row[0], row[1]].default) in (int, float)
        and row[2] != str(options[row[0], row[1]].default)
    ] == [], "defaults differ from the parser's"
