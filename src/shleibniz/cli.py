"""Command-line interface.

Thin wrapper over the runner: each subcommand reads one document (a file
path or '-' for stdin), runs its checks, prints the report, and exits with
0 when everything passed, 1 when a check found violations, and 2 when the
input could not be used (undecodable bytes, parse errors, missing sections,
bad flags).  A document is UTF-8, with or without a byte-order mark.

The subcommands are generated from ``runner.COMMANDS``: each takes the
scope flags its ``runner._OPTION_FIELDS`` entry lists, with the
``RunOptions`` defaults, plus ``--format``; its help is the docstring of the
runner function.
"""

from __future__ import annotations

import codecs
import dataclasses
import sys

import click

from .document import LINE_BREAK
from .errors import DocumentError, DocumentIssue, EngineError
from .report import render_structured, render_text
from .runner import _OPTION_FIELDS, COMMANDS, RunOptions, run_command


def _decode(data: bytes) -> str:
    """The document's text; bytes that are not UTF-8 exit 2 naming the line
    of the first of them, as the parser numbers lines."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the offset counts from after a byte-order mark
        start = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        line = len(LINE_BREAK.split(data[:start].decode("utf-8-sig")))
        issue = DocumentIssue(line, "encoding", f"not UTF-8: {exc.reason} at byte {start}")
        click.echo(issue.render(), err=True)
        sys.exit(2)


def _finish(command: str, text: str, options: RunOptions, fmt: str) -> None:
    try:
        report = run_command(command, text, options)
    except DocumentError as exc:
        for issue in exc.issues:
            click.echo(issue.render(), err=True)
        sys.exit(2)
    except EngineError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    rendered = render_structured(report) if fmt == "structured" else render_text(report)
    click.echo(rendered, nl=False)
    sys.exit(0 if report.passed else 1)


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunOptions)}

# click settings per RunOptions field; defaults come from RunOptions itself
_FLAGS = {
    "max_const": dict(
        type=click.IntRange(min=2), show_default=True, help="Largest identity weight checked."
    ),
    "max_word_len": dict(
        type=click.IntRange(min=1), show_default=True, help="Largest tensor word length checked."
    ),
    "max_arity": dict(
        type=click.IntRange(min=1),
        show_default=True,
        help="Largest nested-operation arity checked.",
    ),
    "first_violation": dict(
        is_flag=True, help="Stop each check at its first counterexample."
    ),
}


@click.group()
def main() -> None:
    """Exact verification of derived brackets on graded Leibniz algebras."""


def _add_command(command: str) -> None:
    def callback(source, fmt: str, **flags) -> None:
        _finish(command, _decode(source.read()), RunOptions(**flags), fmt)

    params = [click.Argument(["source"], type=click.File("rb"))]
    for name in _OPTION_FIELDS.get(command, ()):
        flag = "--" + name.replace("_", "-")
        params.append(click.Option([flag], default=_DEFAULTS[name], **_FLAGS[name]))
    params.append(
        click.Option(
            ["--format", "fmt"],
            type=click.Choice(["text", "structured"]),
            default="text",
            show_default=True,
            help="Report rendering.",
        )
    )
    main.add_command(
        click.Command(command, callback=callback, params=params, help=COMMANDS[command].__doc__)
    )


for _command in COMMANDS:
    _add_command(_command)


if __name__ == "__main__":
    main()
