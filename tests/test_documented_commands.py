"""Every ``python -m repro …`` command the documentation names is valid.

Collects each command from README.md, EXPERIMENTS.md and ``docs/*.md``
(code blocks and inline spans, ``\\`` continuations joined, ``#`` comments
dropped), parses it with the CLI's own parser and, for the commands that
start a cluster, builds the ``(ClusterConfig, GeneratorConfig)`` pair the
command would run and checks it.  No cluster is started.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import _configs_from_args, _parser

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
             *sorted((ROOT / "docs").glob("*.md"))]
CLUSTER_COMMANDS = {"live", "mesh", "query", "chaos", "fleet"}
_COMMAND = re.compile(r"python3? -m repro ([^`\n#]*)")


def documented_commands():
    """``{command after "python -m repro ": "file:line" where first named}``."""
    commands = {}
    for path in DOCUMENTS:
        lines = path.read_text(encoding="utf-8").splitlines()
        number = 0
        while number < len(lines):
            first, text = number + 1, lines[number]
            while text.endswith("\\") and number + 1 < len(lines):
                number += 1
                text = f"{text[:-1]} {lines[number].strip()}"
            number += 1
            for match in _COMMAND.finditer(text):
                commands.setdefault(" ".join(match.group(1).split()),
                                    f"{path.relative_to(ROOT)}:{first}")
    return commands


COMMANDS = documented_commands()


def test_the_documents_name_every_subcommand():
    named = {command.split()[0] for command in COMMANDS}
    assert {"info", "sweep", "trace", "report", "live", "top", "query",
            "chaos", "mesh", "fleet"} <= named


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_documented_command_is_valid(command):
    where = COMMANDS[command]
    try:
        args = _parser().parse_args(shlex.split(command))
    except SystemExit as exc:
        pytest.fail(f"{where}: `python -m repro {command}` does not parse "
                    f"(exit {exc.code})")
    if args.command in CLUSTER_COMMANDS and not getattr(args, "list", False):
        config, _ = _configs_from_args(args)
        config.check(driver=args.command == "query")
