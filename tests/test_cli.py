"""Command line entry points, exit codes, and output formats."""

from __future__ import annotations

import collections
import io
import json
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import shleibniz
from shleibniz import coalgebra
from shleibniz import fixtures as shipped
from shleibniz.cli import main
from shleibniz.runner import _OPTION_FIELDS, COMMANDS, RunOptions
from oracles import perturbed_text

SRC = Path(shleibniz.__file__).resolve().parent.parent


def run(*args, text=None):
    """main(args) in this process with text (str or bytes) on stdin: the
    exit code, and stdout and stderr decoded as UTF-8.  The captured streams
    are configured as ASCII, so non-ASCII output that is not written as
    UTF-8 bytes fails here."""
    data = text.encode() if isinstance(text, str) else text or b""
    streams = (
        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
        io.TextIOWrapper(io.BytesIO(), encoding="ascii"),
        io.TextIOWrapper(io.BytesIO(), encoding="ascii"),
    )
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    out, err = (stream.buffer.getvalue().decode() for stream in streams[1:])
    return types.SimpleNamespace(exit_code=code, out=out, err=err)


def run_process(*args, data=b"", stdout=subprocess.PIPE, **env):
    """``python -m shleibniz.cli args`` with data on stdin; output as bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    command = [sys.executable, "-m", "shleibniz.cli", *args]
    return subprocess.run(
        command, input=data, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60
    )


def fixture_path(name: str, tmp_path):
    path = tmp_path / f"{name}.alg"
    path.write_text(shipped.fixture_text(name))
    return str(path)


def strip_elapsed(output: str) -> str:
    return re.sub(r"elapsed: \d+ ms", "elapsed: X ms", output)


def test_validate_passes_on_every_fixture(tmp_path):
    for name in shipped.fixture_names():
        result = run("validate", fixture_path(name, tmp_path))
        assert result.exit_code == 0, result.out
        assert "verdict: pass" in result.out


def test_reads_stdin_with_dash():
    text = shipped.fixture_text("heisab")
    result = run("check-sh", "-", text=text)
    assert result.exit_code == 0
    assert "document: heisab" in result.out


def test_exit_one_on_violations():
    # the written perturbation matches the designated one for this fixture
    text = shipped.fixture_text("heisab").replace(
        "[delta 0]\na: a1\n", "[delta 0]\na: a1\na1: w\n"
    )
    assert text != shipped.fixture_text("heisab")
    result = run("check-deformation", "-", text=text)
    assert result.exit_code == 1
    assert "verdict: fail" in result.out
    assert "witness" in result.out


def test_exit_two_on_parse_errors():
    result = run("validate", "-", text="[basis]\nx: zero\n")
    assert result.exit_code == 2
    assert "line 2" in result.err and result.out == ""


def test_gauge_that_is_not_a_derivation_exits_two_with_its_line():
    text = "[basis]\nx: 0\ny: 0\n\n[bracket]\nx x: y\n\n[gauge 1]\nx: x\n"
    result = run("validate", "-", text=text)
    assert result.exit_code == 2
    assert "line 8: [gauge 1] xi_1 is not a derivation of the bracket" in result.err


def test_exit_two_on_missing_gauge():
    text = shipped.fixture_text("quartic")
    result = run("gauge", "-", text=text)
    assert result.exit_code == 2


def test_structured_output_is_json(tmp_path):
    result = run(
        "check-codifferential",
        fixture_path("heisab", tmp_path),
        "--format",
        "structured",
        "--max-word-len",
        "3",
    )
    assert result.exit_code == 0
    payload = json.loads(result.out)
    assert payload["verdict"] == "pass"
    assert payload["document"] == "heisab"
    assert payload["options"]["max-word-len"] == 3
    assert all("status" in c for c in payload["checks"])


def test_runs_are_deterministic_modulo_elapsed(tmp_path):
    path = fixture_path("endo2", tmp_path)
    first = run("report-all", path, "--max-const", "4", "--max-word-len", "3")
    second = run("report-all", path, "--max-const", "4", "--max-word-len", "3")
    assert first.exit_code == 0
    assert strip_elapsed(first.out) == strip_elapsed(second.out)


def test_max_const_flag_reflected_in_output(tmp_path):
    path = fixture_path("heisab", tmp_path)
    result = run("check-sh", path, "--max-const", "3")
    assert result.exit_code == 0
    assert "max-const: 3" in result.out


def test_first_violation_truncates_witness_list():
    text = shipped.fixture_text("heisab").replace(
        "[delta 0]\na: a1\n", "[delta 0]\na: a1\na1: w\n"
    )
    full = run("check-sh", "-", text=text)
    quick = run("check-sh", "-", "--first-violation", text=text)
    assert full.exit_code == quick.exit_code == 1
    assert quick.out.count("witness") <= full.out.count("witness")
    assert quick.out.count("witness") == 1


def test_derive_prints_operation_tables(tmp_path):
    result = run("derive", fixture_path("heisab", tmp_path))
    assert result.exit_code == 0
    assert "l_1" in result.out
    assert "l_2(a, a) = a1" in result.out
    assert "check route-agreement: pass" in result.out


def test_gauge_prints_transformed_orders(tmp_path):
    result = run("gauge", fixture_path("endo2", tmp_path))
    assert result.exit_code == 0
    assert "delta'" in result.out


def test_key_lemma_command(tmp_path):
    result = run(
        "check-key-lemma", fixture_path("heisab", tmp_path), "--max-arity", "2"
    )
    assert result.exit_code == 0
    assert "verdict: pass" in result.out


def test_report_all_skips_missing_sections(tmp_path):
    result = run("report-all", fixture_path("quartic", tmp_path), "--max-const", "3")
    assert result.exit_code == 0
    assert "skipped" in result.out


def test_report_all_skips_the_key_lemma_when_a_delta_is_no_derivation():
    # the designated perturbations of endo2 and heisab leave delta_0 no
    # derivation: check-key-lemma refuses them with exit 2, while report-all
    # records the refusal as an info row and reports every other verdict
    message = "first operation is not a derivation of the bracket"
    for name in ("endo2", "heisab"):
        text = perturbed_text(name)
        refused = run("check-key-lemma", "-", text=text)
        assert refused.exit_code == 2 and message in refused.err, name
        result = run("report-all", "-", "--max-const", "3", "--max-word-len", "3", text=text)
        assert result.exit_code == 1, (name, result.out)
        assert f"info key-lemma\n  skipped: {message}\n" in result.out, name
        assert "check codifferential-square: fail" in result.out, name


def test_bad_flag_value_rejected(tmp_path):
    result = run("check-sh", fixture_path("heisab", tmp_path), "--max-const", "1")
    assert result.exit_code == 2


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def test_help_lists_exactly_the_runner_flags_with_their_defaults():
    defaults = RunOptions()
    flat_help = " ".join(run("--help").out.split())
    for command in COMMANDS:
        result = run(command, "--help")
        assert result.exit_code == 0, command
        flat = " ".join(result.out.split())
        assert COMMANDS[command].__doc__ in flat, command
        assert f"{command} {COMMANDS[command].__doc__}" in flat_help, command
        listed = re.findall(r"^  (--[a-z-]+)", result.out, re.MULTILINE)
        fields = _OPTION_FIELDS.get(command, ())
        assert listed == [flag(f) for f in fields] + ["--format"], command
        for name in fields:
            default = getattr(defaults, name)
            if not isinstance(default, bool):
                assert f"(default: {default})" in flat, (command, name)


def assert_refused(result, context):
    """Exit 2 with usage and one error line on stderr, nothing else."""
    assert result.exit_code == 2, (context, result)
    assert result.out == "" and "Traceback" not in result.err, (context, result)
    lines = result.err.splitlines()
    assert lines[0].startswith("usage: shleibniz"), (context, result.err)
    assert re.fullmatch(r"shleibniz( [a-z-]+)?: error: .+", lines[-1]), (context, result.err)
    assert all(line.startswith(" ") for line in lines[1:-1]), (context, result.err)


def test_every_command_refuses_the_flags_it_does_not_list(tmp_path):
    path = fixture_path("heisab", tmp_path)
    values = {"max_const": ["3"], "max_word_len": ["3"], "max_arity": ["2"], "first_violation": []}
    assert set(values) == set(vars(RunOptions()))
    refusals = 0
    for command in COMMANDS:
        listed = _OPTION_FIELDS.get(command, ())
        for name, value in values.items():
            result = run(command, path, flag(name), *value)
            if name in listed:
                assert result.exit_code in (0, 1), (command, name, result.err)
            else:
                assert_refused(result, (command, name))
                assert flag(name) in result.err.splitlines()[-1], (command, name)
                refusals += 1
    listed = sum(len(fields) for fields in _OPTION_FIELDS.values())
    assert refusals == len(COMMANDS) * len(values) - listed


def test_bad_command_lines_exit_two_with_usage_and_one_error_line(tmp_path):
    path = fixture_path("heisab", tmp_path)
    cases = {
        "abbreviated flag": ("check-sh", path, "--max-c", "3"),
        "abbreviated boolean flag": ("check-sh", path, "--first"),
        "abbreviated format": ("validate", path, "--form", "text"),
        "unknown format": ("validate", path, "--format", "yaml"),
        "flag value that is no integer": ("check-key-lemma", path, "--max-arity", "two"),
        "unknown command": ("check-everything", path),
        "no command": (),
        "missing source": ("validate",),
        "two sources": ("validate", path, path),
        "source that does not exist": ("validate", str(tmp_path / "missing.alg")),
        "source that is a directory": ("validate", str(tmp_path)),
    }
    for context, args in cases.items():
        assert_refused(run(*args), context)


def test_the_smallest_scopes_are_accepted_and_below_them_refused(tmp_path):
    # weight 2 alone and words of length 1 are checked, not refused or skipped:
    # the designated perturbation of endo2 already fails there
    for passing, text in ((True, shipped.fixture_text("endo2")), (False, perturbed_text("endo2"))):
        sh = run("check-sh", "-", "--max-const", "2", text=text)
        codifferential = run("check-codifferential", "-", "--max-word-len", "1", text=text)
        gauge = run("check-gauge-equivalence", "-", "--max-word-len", "1", text=text)
        everything = run("report-all", "-", "--max-const", "2", "--max-word-len", "1", text=text)
        for result in (sh, codifferential, gauge, everything):
            assert result.exit_code == (0 if passing else 1), (passing, result)
        assert "max-const: 2\n" in sh.out and "max-const: 2\n" in everything.out
        for result in (codifferential, gauge, everything):
            assert "max-word-len: 1\n" in result.out, (passing, result.out)
        if not passing:
            assert "witness sh-leibniz at (2, E01): residual E10\n" in sh.out
            assert "check orderwise-expansion: fail" in gauge.out
    path = fixture_path("endo2", tmp_path)
    lowest = {"max_const": 2, "max_word_len": 1, "max_arity": 1}
    for command, fields in _OPTION_FIELDS.items():
        for name in (name for name in fields if name in lowest):
            for value in (lowest[name] - 1, lowest[name] - 2):
                assert_refused(run(command, path, flag(name), str(value)), (command, name, value))


def test_output_is_utf8_whatever_the_stream_encoding():
    named = "[metadata]\nname: café\n\n[basis]\nx: 0\n".encode()
    result = run_process("validate", "-", data=named, PYTHONIOENCODING="ascii")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("document: café\n".encode()), result.stdout
    assert run("validate", "-", text=named).out.startswith("document: café\n")
    badly_named = "[basis]\nx: 0\né: 0\n".encode()
    result = run_process("validate", "-", data=badly_named, PYTHONIOENCODING="ascii")
    assert result.returncode == 2 and result.stdout == b""
    assert result.stderr == "line 3: [é] bad generator name\n".encode(), result.stderr


def test_a_reader_that_has_gone_ends_the_command_without_a_traceback():
    # no reader on stdout, as when a pager or `head` quits early
    read, write = os.pipe()
    os.close(read)
    try:
        for args in (("validate", "-"), ("--help",)):
            data = shipped.fixture_text("heisab").encode()
            result = run_process(*args, data=data, stdout=write)
            assert result.returncode == 1 and result.stderr == b"", (args, result.stderr)
    finally:
        os.close(write)


def test_bytes_that_are_not_utf8_exit_two_with_their_line_on_stdin():
    result = run("validate", "-", text=b"\xff\xfe")
    assert result.exit_code == 2
    assert result.err.startswith("line 1: [encoding] "), result.err


def test_bytes_that_are_not_utf8_exit_two_with_their_line_in_a_file(tmp_path):
    path = tmp_path / "latin1.alg"
    data = shipped.fixture_text("heisab").encode()
    line = data[:40].count(b"\n") + 1
    path.write_bytes(data[:40] + "é".encode("latin-1") + data[40:])
    result = run("validate", str(path))
    assert result.exit_code == 2
    message = "not UTF-8: invalid continuation byte at byte 40"
    assert result.err == f"line {line}: [encoding] {message}\n" and result.out == ""


def test_bytes_that_are_not_utf8_are_located_under_every_line_ending():
    data = b"[basis]\nx: 0\ny: \xff\n"
    for ending in (b"\n", b"\r\n", b"\r"):
        result = run("validate", "-", text=data.replace(b"\n", ending))
        assert result.exit_code == 2
        assert result.err.startswith("line 3: [encoding] "), (ending, result.err)


def test_a_nul_inside_an_element_exits_two():
    result = run("derive", "-", text="[basis]\nx: 0\ny: 1\nz: 1\n\n[delta 0]\nx: y\0z\n")
    assert result.exit_code == 2
    assert result.err == "line 7: [y\\u0000z] bad generator name\n", result.err
    assert result.out == ""


# what could drive a terminal: every C0 control but tab and newline, DEL, C1
RAW_CONTROL = re.compile("[\x00-\x08\x0b-\x1f\x7f-\x9f]")


def test_control_characters_echoed_from_a_document_are_escaped():
    # a document name on stdout and a malformed field on stderr are written
    # with \u00XX, as structured output writes them; a tab stays a tab
    name = "\x1b[31mred\x07\x0b\x7f\x9b2J\tend"
    result = run("validate", "-", text=f"[metadata]\nname: {name}\n\n[basis]\nx: 0\n")
    assert result.exit_code == 0 and result.err == ""
    shown = "\\u001b[31mred\\u0007\\u000b\\u007f\\u009b2J\tend"
    assert result.out.split("\n")[0] == f"document: {shown}", result.out
    assert not RAW_CONTROL.search(result.out)
    result = run("validate", "-", text="[basis]\nx: 0\ny\x1b[2J\x9b: 0\n[bogus\x1b]\n")
    assert result.exit_code == 2 and result.out == ""
    assert result.err == (
        "line 3: [y\\u001b[2J\\u009b] bad generator name\n"
        "line 4: [[bogus\\u001b]] malformed section header\n"
    ), result.err
    assert not RAW_CONTROL.search(result.err)


def test_line_and_paragraph_separators_echoed_from_a_document_are_escaped():
    # str.splitlines() breaks a line at U+2028 and U+2029: a document name
    # or a malformed field holding one is written with \u2028 or \u2029,
    # so that it cannot forge a line of the report, such as its verdict
    for separator in ("\u2028", "\u2029"):
        shown = f"\\u{ord(separator):04x}"
        text = f"[metadata]\nname: x{separator}verdict: pass\n[basis]\na: 0\n[bracket]\na a: a\n"
        result = run("check-leibniz", "-", text=text)
        assert result.exit_code == 1 and result.err == ""
        assert result.out.splitlines() == result.out.split("\n")[:-1], result.out
        assert result.out.splitlines()[0] == f"document: x{shown}verdict: pass"
        result = run("validate", "-", text=f"[basis]\nx: 0\ny{separator}z: 0\n")
        assert result.exit_code == 2 and result.out == ""
        assert result.err.splitlines() == result.err.split("\n")[:-1], result.err
        assert result.err == f"line 3: [y{shown}z] bad generator name\n"


def test_a_failing_proof_exits_two_on_every_command_that_proves(monkeypatch):
    # the coalgebra proofs return nothing or raise EngineError, and the rows
    # built on them read no verdict: a failing proof must end the command
    # with exit 2, one error line and no report
    def failures(n, *rest):
        return frozenset({(0, 1)}) if n == 2 else frozenset()

    monkeypatch.setattr(coalgebra, "_dual_leibniz_failures", failures)
    monkeypatch.setattr(coalgebra, "_coderivation_failures", failures)
    text = shipped.fixture_text("endo2")
    for command in ("check-coalgebra", "check-codifferential", "check-gauge-equivalence"):
        result = run(command, "-", text=text)
        assert result.exit_code == 2 and result.out == "", (command, result.out)
        assert re.fullmatch(r"error: .* parity pattern \(0, 1\); .*\n", result.err), command


def test_a_byte_order_mark_is_read_as_utf8(tmp_path):
    path = tmp_path / "bom.alg"
    text = shipped.fixture_text("heisab")
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert run("validate", str(path)) == run("validate", "-", text=text)


def _mutants(rng, data: bytes, count: int):
    """count seeded mutants of data: a character deleted, one of
    ': [ ] - / 0 \\xff' inserted, a line duplicated, two lines swapped, or
    the text truncated."""
    for _ in range(count):
        kind = rng.randrange(5)
        at = rng.randrange(len(data))
        lines = data.splitlines(keepends=True)
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == 0:
            yield data[:at] + data[at + 1 :]
        elif kind == 1:
            yield data[:at] + rng.choice(b":[]-/0\xff").to_bytes(1, "big") + data[at:]
        elif kind == 2:
            yield b"".join(lines[: i + 1] + lines[i:])
        elif kind == 3:
            lines[i], lines[j] = lines[j], lines[i]
            yield b"".join(lines)
        else:
            yield data[:at]


def test_malformed_documents_exit_cleanly():
    # seeded mutants of every fixture: no traceback, and exit 2 only with
    # located issues or one error line
    rng = random.Random(2009)
    located = re.compile(r"line \d+: \[.*\] .+|error: .+")
    exits = collections.Counter()
    for name in shipped.fixture_names():
        data = shipped.fixture_text(name).encode()
        for mutant in _mutants(rng, data, 100):
            # any exception but SystemExit propagates out of run
            result = run("validate", "-", text=mutant)
            assert result.exit_code in (0, 1, 2), (name, mutant, result)
            if result.exit_code == 2:
                lines = result.err.splitlines()
                assert lines and all(located.fullmatch(s) for s in lines), (name, result.err)
                assert result.out == "", (name, result.out)
            exits[result.exit_code] += 1
    assert exits[2] >= 200 and exits[0] >= 50, exits
