"""The README's examples run as printed: its JSON configs through the CLI and
its library example as a script."""

import json
import re
from pathlib import Path

import pytest

from firmlp import cli, operators
from firmlp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def test_readme_has_two_configs_and_one_library_example():
    assert len(blocks("json")) == 2
    assert len(blocks("python")) == 1


@pytest.mark.parametrize("index, command", [(0, "certify"), (1, "feasibility")])
def test_config_runs(tmp_path, index, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(blocks("json")[index])
    json.loads(cfg.read_text())
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_library_example_runs(capsys):
    exec(compile(blocks("python")[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == repr(2.0 / 3.0)
    assert lines[1].startswith("True ")


def readme_key_table():
    """Subcommand or nested document -> (required keys, optional keys), as
    the README's config key table lists them."""
    header = "| subcommand or document | required keys | optional keys |\n|---|---|---|\n"
    rows = README.split(header)[1].split("\n\n")[0].splitlines()
    table = {}
    for row in rows:
        name, required, optional = (re.findall(r"`(\w+)`", cell) for cell in row.strip("|").split("|"))
        table[name[0]] = (set(required), set(optional))
    return table


def test_key_table_lists_the_declared_keys():
    declared = {}

    def nested(keys):
        for key, read in keys.items():
            if isinstance(read, dict):
                declared[key] = (set(), set(read))
                nested(read)

    for command, (_, keys, required, _) in cli._COMMANDS.items():
        declared[command] = (set(required), set(keys) - set(required))
        nested(keys)
    assert readme_key_table() == declared


def readme_kind_table():
    """Operator kind -> its keys cell, as the README's operator kind table
    lists them."""
    header = "| kind | keys |\n|---|---|\n"
    rows = README.split(header)[1].split("\n\n")[0].splitlines()
    return {re.findall(r"`(\w+)`", kind)[0]: keys
            for kind, keys in (row.strip("|").split("|", 1) for row in rows)}


def test_kind_table_lists_the_operator_kinds():
    table = readme_kind_table()
    assert set(table) == set(operators._KINDS)
    assert set(re.findall(r"`(\w+)`", table["activation"])) == {"name"} | set(operators._ACTIVATIONS)
