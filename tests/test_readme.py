"""README names every flag of the command line, and every flag it names exists."""

import argparse
import re
from pathlib import Path

from chunkcheck.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
# argparse's own flag, and pip's in the install commands.
NOT_CHUNKCHECK = {"--help", "--no-build-isolation"}


def _parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every long flag of the parser and of its subcommands' parsers."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def _readme_flags() -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))


def test_readme_names_every_flag():
    assert _parser_flags(build_parser()) - NOT_CHUNKCHECK - _readme_flags() == set()


def test_every_flag_readme_names_exists():
    assert _readme_flags() - NOT_CHUNKCHECK - _parser_flags(build_parser()) == set()
