"""Command-line interface.

Thin wrapper over the runner: each subcommand reads one document (a file
path or '-' for stdin), runs its checks, prints the report, and exits with
0 when everything passed, 1 when a check found violations, and 2 when the
input could not be used (undecodable bytes, parse errors, missing sections,
bad flags).  A document is UTF-8, with or without a byte-order mark, and
every report, message and help text is written as UTF-8, whatever encoding
the stream is configured with.

The subcommands are generated from ``runner.COMMANDS``: each takes the
scope flags its ``runner._OPTION_FIELDS`` entry lists, with the
``RunOptions`` defaults, plus ``--format``; its help is the docstring of the
runner function.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys

from .document import LINE_BREAK
from .errors import DocumentError, DocumentIssue, EngineError
from .report import render_structured, render_text
from .runner import _OPTION_FIELDS, COMMANDS, RunOptions, run_command


def _echo(stream, text: str) -> None:
    try:
        stream.flush()
        stream.buffer.write(text.encode("utf-8"))
        stream.flush()
    except BrokenPipeError:
        # the reader has gone, as under `| head`: exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        sys.exit(1)


class _Parser(argparse.ArgumentParser):
    # help, usage and error messages all leave argparse through this method
    def _print_message(self, message: str, file=None) -> None:
        if message:
            _echo(file or sys.stderr, message)


def _at_least(low: int):
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than the minimum {low}")
        return value

    return integer


def _source(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"can't read {path!r}: {exc.strerror}") from None


def _decode(data: bytes) -> str:
    """The document's text; bytes that are not UTF-8 are a DocumentError
    naming the line of the first of them, as the parser numbers lines."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the offset counts from after a byte-order mark
        start = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        line = len(LINE_BREAK.split(data[:start].decode("utf-8-sig")))
        message = f"not UTF-8: {exc.reason} at byte {start}"
        raise DocumentError([DocumentIssue(line, "encoding", message)]) from None


# argparse settings per RunOptions field; defaults come from RunOptions itself
_DEFAULT = " (default: %(default)s)."
_FLAGS = {
    "max_const": dict(type=_at_least(2), help="Largest identity weight checked" + _DEFAULT),
    "max_word_len": dict(type=_at_least(1), help="Largest tensor word length checked" + _DEFAULT),
    "max_arity": dict(type=_at_least(1), help="Largest nested-operation arity checked" + _DEFAULT),
    "first_violation": dict(action="store_true", help="Stop each check at its first witness."),
}


def _parser() -> argparse.ArgumentParser:
    defaults = RunOptions()
    parser = _Parser(
        prog="shleibniz",
        description="Exact verification of derived brackets on graded Leibniz algebras.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for command, run in COMMANDS.items():
        sub = commands.add_parser(
            command, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        sub.add_argument("source", type=_source, help="Document path, or - for stdin.")
        for name in _OPTION_FIELDS.get(command, ()):
            flag = "--" + name.replace("_", "-")
            sub.add_argument(flag, default=getattr(defaults, name), **_FLAGS[name])
        sub.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "structured"),
            default="text",
            help="Report rendering" + _DEFAULT,
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the exit code, or SystemExit(2) on bad flags."""
    flags = vars(_parser().parse_args(argv))
    command, data, fmt = (flags.pop(k) for k in ("command", "source", "fmt"))
    try:
        report = run_command(command, _decode(data), RunOptions(**flags))
    except DocumentError as exc:
        _echo(sys.stderr, "".join(issue.render() + "\n" for issue in exc.issues))
        return 2
    except EngineError as exc:
        _echo(sys.stderr, f"error: {exc}\n")
        return 2
    _echo(sys.stdout, render_structured(report) if fmt == "structured" else render_text(report))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
