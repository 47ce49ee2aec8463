"""The README's module table, key table and command-line example match
the package."""

import importlib
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
        "pulse": ["shape", "winding", "amplitude", "samples"],
    }
    section = README.read_text(encoding="utf-8").split("Keys per command", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|\s*$", section.split("\n\n", 2)[1], flags=re.M)
    table = {}
    for command, cells in rows:
        keys = [cell.strip().strip("`") for cell in cells.split(",")]
        table[command] = [k for key in keys for k in groups.get(key, [key])]
    assert table == {command: list(keys) for command, (_, keys) in COMMANDS.items()}


def _cli_example() -> list[str]:
    """The lines of the first bash block after "## Command-line tool", the
    block that CI's awk runs through the console script."""
    lines = README.read_text(encoding="utf-8").splitlines()
    heading = next(i for i, line in enumerate(lines) if line.startswith("## Command-line tool"))
    start = lines.index("```bash", heading) + 1
    return lines[start : lines.index("```", start)]


def test_cli_example_runs(tmp_path, monkeypatch):
    # In process: an ``echo '...' > f`` or ``printf '...' > f`` line writes
    # its file, a ``spinholonomy ...`` line runs main; any other line fails.
    from spinholonomy.cli import main

    monkeypatch.chdir(tmp_path)
    for line in _cli_example():
        words = shlex.split(line)
        if words[0] in ("echo", "printf") and len(words) == 4 and words[2] == ">":
            text = words[1] + "\n" if words[0] == "echo" else words[1].replace("\\n", "\n")
            Path(words[3]).write_text(text, encoding="utf-8")
        else:
            assert words[0] == "spinholonomy", f"unhandled example line: {line}"
            assert main(words[1:]) == 0, line
    # The files that CI's example step lists.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    listed = re.search(r"^\s+ls (.+)$", workflow, flags=re.M).group(1).split()
    assert [name for name in listed if not Path(name).is_file()] == []
