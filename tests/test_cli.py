"""Command line entry points, exit codes, and output formats."""

from __future__ import annotations

import collections
import dataclasses
import json
import random
import re

from click.testing import CliRunner

from shleibniz import fixtures as shipped
from shleibniz.cli import main
from shleibniz.runner import _OPTION_FIELDS, COMMANDS, RunOptions
from oracles import perturbed_text


def run(*args, text=None):
    return CliRunner().invoke(main, list(args), input=text)


def fixture_path(name: str, tmp_path):
    path = tmp_path / f"{name}.alg"
    path.write_text(shipped.fixture_text(name))
    return str(path)


def strip_elapsed(output: str) -> str:
    return re.sub(r"elapsed: \d+ ms", "elapsed: X ms", output)


def test_validate_passes_on_every_fixture(tmp_path):
    for name in shipped.fixture_names():
        result = run("validate", fixture_path(name, tmp_path))
        assert result.exit_code == 0, result.output
        assert "verdict: pass" in result.output


def test_reads_stdin_with_dash():
    text = shipped.fixture_text("heisab")
    result = run("check-sh", "-", text=text)
    assert result.exit_code == 0
    assert "document: heisab" in result.output


def test_exit_one_on_violations():
    # the written perturbation matches the designated one for this fixture
    text = shipped.fixture_text("heisab").replace(
        "[delta 0]\na: a1\n", "[delta 0]\na: a1\na1: w\n"
    )
    assert text != shipped.fixture_text("heisab")
    result = run("check-deformation", "-", text=text)
    assert result.exit_code == 1
    assert "verdict: fail" in result.output
    assert "witness" in result.output


def test_exit_two_on_parse_errors():
    result = run("validate", "-", text="[basis]\nx: zero\n")
    assert result.exit_code == 2
    assert "line 2" in result.output


def test_gauge_that_is_not_a_derivation_exits_two_with_its_line():
    text = "[basis]\nx: 0\ny: 0\n\n[bracket]\nx x: y\n\n[gauge 1]\nx: x\n"
    result = run("validate", "-", text=text)
    assert result.exit_code == 2
    assert "line 8: [gauge 1] xi_1 is not a derivation of the bracket" in result.output


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
    payload = json.loads(result.output)
    assert payload["verdict"] == "pass"
    assert payload["document"] == "heisab"
    assert payload["options"]["max-word-len"] == 3
    assert all("status" in c for c in payload["checks"])


def test_runs_are_deterministic_modulo_elapsed(tmp_path):
    path = fixture_path("endo2", tmp_path)
    first = run("report-all", path, "--max-const", "4", "--max-word-len", "3")
    second = run("report-all", path, "--max-const", "4", "--max-word-len", "3")
    assert first.exit_code == 0
    assert strip_elapsed(first.output) == strip_elapsed(second.output)


def test_max_const_flag_reflected_in_output(tmp_path):
    path = fixture_path("heisab", tmp_path)
    result = run("check-sh", path, "--max-const", "3")
    assert result.exit_code == 0
    assert "max-const: 3" in result.output


def test_first_violation_truncates_witness_list():
    text = shipped.fixture_text("heisab").replace(
        "[delta 0]\na: a1\n", "[delta 0]\na: a1\na1: w\n"
    )
    full = run("check-sh", "-", text=text)
    quick = run("check-sh", "-", "--first-violation", text=text)
    assert full.exit_code == quick.exit_code == 1
    assert quick.output.count("witness") <= full.output.count("witness")
    assert quick.output.count("witness") == 1


def test_derive_prints_operation_tables(tmp_path):
    result = run("derive", fixture_path("heisab", tmp_path))
    assert result.exit_code == 0
    assert "l_1" in result.output
    assert "l_2(a, a) = a1" in result.output
    assert "check route-agreement: pass" in result.output


def test_gauge_prints_transformed_orders(tmp_path):
    result = run("gauge", fixture_path("endo2", tmp_path))
    assert result.exit_code == 0
    assert "delta'" in result.output


def test_key_lemma_command(tmp_path):
    result = run(
        "check-key-lemma", fixture_path("heisab", tmp_path), "--max-arity", "2"
    )
    assert result.exit_code == 0
    assert "verdict: pass" in result.output


def test_report_all_skips_missing_sections(tmp_path):
    result = run("report-all", fixture_path("quartic", tmp_path), "--max-const", "3")
    assert result.exit_code == 0
    assert "skipped" in result.output


def test_report_all_skips_the_key_lemma_when_a_delta_is_no_derivation():
    # the designated perturbations of endo2 and heisab leave delta_0 no
    # derivation: check-key-lemma refuses them with exit 2, while report-all
    # records the refusal as an info row and reports every other verdict
    message = "first operation is not a derivation of the bracket"
    for name in ("endo2", "heisab"):
        text = perturbed_text(name)
        refused = run("check-key-lemma", "-", text=text)
        assert refused.exit_code == 2 and message in refused.output, name
        result = run("report-all", "-", "--max-const", "3", "--max-word-len", "3", text=text)
        assert result.exit_code == 1, (name, result.output)
        assert f"info key-lemma\n  skipped: {message}\n" in result.output, name
        assert "check codifferential-square: fail" in result.output, name


def test_bad_flag_value_rejected(tmp_path):
    result = run("check-sh", fixture_path("heisab", tmp_path), "--max-const", "1")
    assert result.exit_code == 2


def test_help_lists_exactly_the_runner_flags_with_their_defaults():
    defaults = {f.name: f.default for f in dataclasses.fields(RunOptions)}
    for command in COMMANDS:
        result = run(command, "--help")
        assert result.exit_code == 0, command
        assert COMMANDS[command].__doc__ in result.output
        listed = re.findall(r"^  (--[a-z-]+)", result.output, re.MULTILINE)
        fields = _OPTION_FIELDS.get(command, ())
        assert listed == [f"--{f.replace('_', '-')}" for f in fields] + ["--format", "--help"]
        flat = " ".join(result.output.split())
        for name in fields:
            if not isinstance(defaults[name], bool):
                assert f"[default: {defaults[name]};" in flat, (command, name)


def test_bytes_that_are_not_utf8_exit_two_with_their_line_on_stdin():
    result = CliRunner().invoke(main, ["validate", "-"], input=b"\xff\xfe")
    assert result.exit_code == 2
    assert result.output.startswith("line 1: [encoding] "), result.output


def test_bytes_that_are_not_utf8_exit_two_with_their_line_in_a_file(tmp_path):
    path = tmp_path / "latin1.alg"
    data = shipped.fixture_text("heisab").encode()
    line = data[:40].count(b"\n") + 1
    path.write_bytes(data[:40] + "é".encode("latin-1") + data[40:])
    result = run("validate", str(path))
    assert result.exit_code == 2
    message = "not UTF-8: invalid continuation byte at byte 40"
    assert result.output == f"line {line}: [encoding] {message}\n"


def test_bytes_that_are_not_utf8_are_located_under_every_line_ending():
    data = b"[basis]\nx: 0\ny: \xff\n"
    for ending in (b"\n", b"\r\n", b"\r"):
        result = run("validate", "-", text=data.replace(b"\n", ending))
        assert result.exit_code == 2
        assert result.output.startswith("line 3: [encoding] "), (ending, result.output)


def test_a_nul_inside_an_element_exits_two():
    result = run("derive", "-", text="[basis]\nx: 0\ny: 1\nz: 1\n\n[delta 0]\nx: y\0z\n")
    assert result.exit_code == 2
    assert result.output == "line 7: [y\0z] bad generator name\n", result.output


def test_a_byte_order_mark_is_read_as_utf8(tmp_path):
    path = tmp_path / "bom.alg"
    text = shipped.fixture_text("heisab")
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert run("validate", str(path)).output == run("validate", "-", text=text).output


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
            result = CliRunner().invoke(main, ["validate", "-"], input=mutant)
            exc = result.exception
            assert exc is None or isinstance(exc, SystemExit), (name, mutant, exc)
            assert result.exit_code in (0, 1, 2), (name, mutant, result.output)
            if result.exit_code == 2:
                lines = result.output.splitlines()
                assert lines and all(located.fullmatch(s) for s in lines), (name, result.output)
            exits[result.exit_code] += 1
    assert exits[2] >= 200 and exits[0] >= 50, exits
