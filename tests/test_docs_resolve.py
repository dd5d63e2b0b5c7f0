"""The docs point at things that exist.

Every backticked ``repro.*`` path in DESIGN.md and README.md must import,
or resolve as an attribute of a module that does; every DESIGN section a
program file cites (``DESIGN`` or ``DESIGN.md``, then one or more ``§``
numbers) must be a numbered heading of DESIGN.md; and every ``--flag``
README.md shows after ``python -m repro <command>`` must be in that
command's ``--help``.
"""

import contextlib
import functools
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: A backticked span that starts with a dotted ``repro`` path.
DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
#: A numbered DESIGN.md heading: ``## 13. Title`` or ``### 5.3 Title``.
HEADING = re.compile(r"^#{2,4} (\d+(?:\.\d+)*)\.? ", re.MULTILINE)
#: A citation, possibly wrapped onto a comment's next line, and the
#: sections it lists: ``§5.3``, ``§5.3, §10`` or ``§5.3 and §8.1``.
CITATION = re.compile(
    r"DESIGN(?:\.md)?[\s#]*(§\d+(?:\.\d+)*(?:(?:,\s*|\s+and\s+)§\d+(?:\.\d+)*)*)"
)
CITING = ("src/**/*.py", "tests/**/*.py", "tools/**/*.py", "benchmarks/**/*.py")
#: A command line up to its end or its ``#`` comment, and its flags.
COMMAND = re.compile(r"python -m repro ([a-z]+)([^\n#]*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def resolves(path: str) -> bool:
    """Whether ``path`` imports, or is an attribute chain off the longest
    prefix of it that imports."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(found, name):
                return False
            found = getattr(found, name)
        return True
    return False


def dotted_paths(root: Path) -> list:
    return sorted(
        {
            (name, path)
            for name in ("DESIGN.md", "README.md")
            for path in DOTTED.findall((root / name).read_text(encoding="utf-8"))
        }
    )


def dangling_citations(root: Path) -> list:
    headings = set(HEADING.findall((root / "DESIGN.md").read_text(encoding="utf-8")))
    dangling = []
    for pattern in CITING:
        for file in sorted(root.glob(pattern)):
            text = file.read_text(encoding="utf-8")
            for match in CITATION.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                for section in re.findall(r"§([\d.]+)", match.group(1)):
                    if section not in headings:
                        name = file.relative_to(root).as_posix()
                        dangling.append(f"{name}:{line}: §{section}")
    return dangling


@functools.lru_cache(maxsize=None)
def command_help(command: str) -> str:
    """What ``python -m repro <command> --help`` prints."""
    from repro.__main__ import build_parser

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return printed.getvalue()


def unknown_flags(readme: str) -> list:
    unknown = []
    for command, rest in COMMAND.findall(readme):
        help_text = command_help(command)
        unknown.extend(
            f"{command} {flag}"
            for flag in FLAG.findall(rest)
            if not re.search(rf"(?<![\w-]){flag}(?![\w-])", help_text)
        )
    return sorted(set(unknown))


def test_the_checks_see_what_they_check():
    assert len(dotted_paths(ROOT)) > 40
    assert not resolves("repro.no_such_module")
    assert not resolves("repro.cache.runcache.no_such_name")
    assert resolves("repro.cache.runcache.RunCache.execute")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(COMMAND.findall(readme)) > 20
    assert unknown_flags("python -m repro compare f1 --no-such-flag  # --jobs") == [
        "compare --no-such-flag"
    ]


def test_every_backticked_path_resolves():
    assert [
        f"{doc}: `{path}`" for doc, path in dotted_paths(ROOT) if not resolves(path)
    ] == []


def test_every_cited_design_section_exists():
    assert dangling_citations(ROOT) == []


def test_every_readme_flag_is_in_its_commands_help():
    assert unknown_flags((ROOT / "README.md").read_text(encoding="utf-8")) == []
