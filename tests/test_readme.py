"""README's examples, run as written: the library block's printed lines
against their comments, and every CLI line against the argument parser."""

import contextlib
import io
import shlex
from pathlib import Path

from polyprod.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(language: str) -> list[str]:
    """The code blocks whose opening fence names `language` ("" for none)."""
    blocks, info = [], None
    for line in README.splitlines(keepends=True):
        if line.startswith("```"):
            if info is None:
                info, body = line[3:].strip(), []
            else:
                if info == language:
                    blocks.append("".join(body))
                info = None
        elif info is not None:
            body.append(line)
    return blocks


def test_the_library_example_prints_what_its_comments_say():
    (block,) = fenced_blocks("python")
    # a comment reads "# <printed line>", optionally followed by ": <remark>"
    expected = [line.split("#", 1)[1].split(":", 1)[0].strip()
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["H_0 = Z, H_3 = Z^2, H_6 = Z", "True", "H_3 = Z"]


def test_every_cli_example_parses():
    lines = [line.split("#", 1)[0] for block in fenced_blocks("")
             for line in block.splitlines() if line.startswith("polyprod ")]
    assert len(lines) == 11
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0], line
