"""The README's module table names only what its modules define."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _module_rows() -> list[tuple[str, str]]:
    """``(module, contents)`` of each ``spinholonomy.X`` row of "What's here"."""
    section = README.read_text(encoding="utf-8").split("## What's here", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(spinholonomy\.\w+)`\s*\|(.*)\|\s*$", section, flags=re.M)


def test_whats_here_names_exist():
    rows = _module_rows()
    assert len(rows) >= 8
    stale = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            if len(name) > 1 and not hasattr(module, name):
                stale.append(f"{module_name}.{name}")
    assert not stale, f"README names missing from their modules: {stale}"


def test_keys_per_command_table_matches_cli():
    # "couplings" and "pulse" stand for their keys, in the order the CLI reads them.
    from spinholonomy.cli import COMMANDS

    groups = {
        "couplings": ["j1", "j2", "d1", "d2"],
        "pulse": ["shape", "winding", "amplitude", "duration", "samples"],
    }
    section = README.read_text(encoding="utf-8").split("Keys per command", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|\s*$", section.split("\n\n", 2)[1], flags=re.M)
    table = {}
    for command, cells in rows:
        keys = [cell.strip().strip("`") for cell in cells.split(",")]
        table[command] = [k for key in keys for k in groups.get(key, [key])]
    assert table == {command: list(keys) for command, (_, keys) in COMMANDS.items()}
