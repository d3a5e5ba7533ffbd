"""The README's examples against the package: its library sketch runs, its
command lines parse and its profile JSON loads."""

import json
import pathlib
import re
import shlex

from softsqueeze.cli import build_parser
from softsqueeze.core import profile_from_dict

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def readme_commands() -> list:
    """The argv, without the program name, of every `softsqueeze` line of the
    README's sh blocks, continuation lines joined."""
    return [shlex.split(line)[1:]
            for block in _blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("softsqueeze ")]


def test_readme_examples_match_the_package():
    (sketch,) = _blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})

    # the command lines are parsed, not run
    commands = readme_commands()
    assert len(commands) == 13
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).handler), argv

    # one profile per line, or per line that opens an object and those it spans
    (profiles,) = _blocks("json")
    kinds = [profile_from_dict(json.loads(text)).kind
             for text in re.split(r"\n(?=\{)", profiles.strip())]
    assert kinds == ["constant", "mathieu", "theta", "sampled", "composite"]
