"""The line-oriented document format: parsing, validation, serialization."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from shleibniz import fixtures as shipped
from shleibniz.document import AlgebraDocument, parse_document, serialize_document
from shleibniz.errors import DocumentError
from shleibniz.graded import Element, GradedBasis, SparseVector


def issues_of(text: str):
    with pytest.raises(DocumentError) as excinfo:
        parse_document(text)
    return excinfo.value.issues


def test_every_fixture_file_round_trips(docs):
    for name, doc in docs.items():
        text = shipped.fixture_text(name)
        assert parse_document(text) == doc
        assert parse_document(serialize_document(doc)) == doc


def test_serialize_is_stable_on_fixture_files(docs):
    for name in docs:
        text = shipped.fixture_text(name)
        assert serialize_document(parse_document(text)) == text


def test_parser_normalises_scrambled_input():
    messy = """
# comment lines and blank lines are skipped
[basis]
e: 0
c: 0
b: 1
w: 2

[bracket]
e e: 1 c

[delta 0]
e:   +1/1 b

[delta 1]
e: 2 b - 1 b
"""
    doc = parse_document(messy)
    assert doc.bracket == (("e", "e", ((Fraction(1), "c"),)),)
    assert doc.deltas[0] == (("e", ((Fraction(1), "b"),)),)
    # 2 b - 1 b collapses to b
    assert doc.deltas[1] == (("e", ((Fraction(1), "b"),)),)
    text = serialize_document(doc)
    assert parse_document(text) == doc


def test_parsed_coefficients_are_exact_scalars(docs):
    doc = parse_document("[basis]\nx: 0\ny: 0\n\n[bracket]\nx x: 2/2 x - 4/6 y\n")
    ((_, _, terms),) = doc.bracket
    assert [(type(c), c, g) for c, g in terms] == [(int, 1, "x"), (Fraction, Fraction(-2, 3), "y")]
    for name, fixture in docs.items():
        for *_, entry in fixture.bracket:
            assert all(type(c) is int for c, _ in entry), name
        for order in fixture.deltas + fixture.gauges:
            assert all(type(c) is int for _, entry in order for c, _ in entry), name


def test_terms_sorted_by_basis_index():
    text = """
[basis]
x: 0
y: 1
z: 1

[delta 0]
x: -1/2 z + y
"""
    doc = parse_document(text)
    assert doc.deltas[0] == (("x", ((Fraction(1), "y"), (Fraction(-1, 2), "z"))),)


def test_metadata_name_fallback():
    doc = parse_document("[basis]\nx: 0\n")
    assert doc.name == "unnamed"
    named = parse_document("[metadata]\nname: probe\n\n[basis]\nx: 0\n")
    assert named.name == "probe"


def test_all_issues_collected_with_line_numbers():
    text = """[basis]
x: 0
x: 1
y: oops

[bracket]
x q: y
"""
    issues = issues_of(text)
    assert len(issues) >= 3
    lines = sorted(issue.line for issue in issues)
    assert 3 in lines  # duplicate generator
    assert 4 in lines  # bad degree literal
    assert 7 in lines  # unknown generator q


def test_degree_homogeneity_enforced():
    base = "[basis]\nx: 0\ny: 1\nw: 2\n"
    # bracket term must have degree |x| + |y| = 1
    issues = issues_of(base + "\n[bracket]\nx y: w\n")
    assert any("degree" in i.message for i in issues)
    # delta image must raise degree by one
    issues = issues_of(base + "\n[delta 0]\nx: x\n")
    assert any("degree" in i.message for i in issues)
    # gauge image must preserve degree
    issues = issues_of(base + "\n[gauge 1]\nx: y\n")
    assert any("degree" in i.message for i in issues)


def test_delta_orders_must_be_contiguous_from_zero():
    base = "[basis]\nx: 0\ny: 1\n"
    issues = issues_of(base + "\n[delta 0]\nx: y\n\n[delta 2]\nx: y\n")
    assert any("order" in i.message for i in issues)
    issues = issues_of(base + "\n[delta 1]\nx: y\n")
    assert any("order" in i.message for i in issues)


def test_gauge_orders_start_at_one():
    base = "[basis]\nx: 0\ny: 0\n"
    issues = issues_of(base + "\n[gauge 0]\nx: y\n")
    assert any("order" in i.message for i in issues)


def test_duplicate_entries_rejected():
    issues = issues_of("[basis]\nx: 0\ny: 0\n\n[bracket]\nx y: x\nx y: y\n")
    assert any("duplicate" in i.message for i in issues)
    issues = issues_of("[basis]\nx: 0\ny: 1\n\n[delta 0]\nx: y\nx: y\n")
    assert any("duplicate" in i.message for i in issues)


def test_unknown_section_rejected():
    issues = issues_of("[basis]\nx: 0\n\n[extras]\nx: 1\n")
    assert any("section" in i.message for i in issues)


def test_entry_before_any_section_rejected():
    issues = issues_of("x: 0\n[basis]\nx: 0\n")
    assert issues[0].line == 1


def test_element_grammar_errors():
    base = "[basis]\nx: 0\ny: 1\n\n[delta 0]\n"
    assert issues_of(base + "x: y +\n")
    assert issues_of(base + "x: 1/0 y\n")
    assert issues_of(base + "x: + \n")
    assert issues_of(base + "x:\n")


def test_a_nul_inside_an_element_stays_in_its_term():
    # terms split only before a sign, so a NUL is refused where it stands
    base = "[basis]\nx: 0\ny: 1\nz: 1\n\n[delta 0]\n"
    for element, field, message in (
        ("y\0z", "y\0z", "bad generator name"),
        ("y\0\0z", "y\0\0z", "bad generator name"),
        ("2\0 y - z", "2\0", "bad coefficient"),
    ):
        issues = issues_of(base + f"x: {element}\n")
        assert [(i.line, i.field, i.message) for i in issues] == [(7, field, message)], element


@pytest.mark.parametrize(
    "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_lines_break_only_at_newlines(separator):
    # str.splitlines also breaks at these; the format does not, so a value
    # keeps them and the issues keep the lines that \r\n, \r and \n give
    valid = f"[metadata]\nnote: a{separator}b\n\n[basis]\nx: 0\n"
    for ending in ("\n", "\r\n", "\r"):
        doc = parse_document(valid.replace("\n", ending))
        assert doc.metadata == (("note", f"a{separator}b"),)
        assert parse_document(serialize_document(doc)) == doc
        issues = issues_of((valid + "[bracket]\nx x: q\n").replace("\n", ending))
        assert [(i.line, i.field, i.message) for i in issues] == [(7, "q", "unknown generator")]


def test_zero_element_and_empty_sections():
    text = """
[basis]
x: 0
y: 1

[bracket]

[delta 0]
x: 0

[delta 1]
x: y
"""
    doc = parse_document(text)
    assert doc.bracket == ()
    # explicit zero image normalises away
    assert doc.deltas[0] == ()
    assert doc.deltas[1] == (("x", ((Fraction(1), "y"),)),)


def test_missing_basis_rejected():
    issues = issues_of("[metadata]\nname: empty\n")
    assert any("basis" in i.message for i in issues)


@pytest.mark.parametrize(
    "text, expected",
    [
        # a [basis] header without a generator is located at the header,
        # after the entry's own issue; "no [basis] section" only without one
        (
            "[basis]\nx: +1\n",
            ["line 2: [+1] degree must be an integer", "line 1: [basis] section lists no generator"],
        ),
        ("[metadata]\nname: bare\n\n[basis]\n", ["line 4: [basis] section lists no generator"]),
        ("[metadata]\nname: bare\n", ["line 0: [basis] document has no [basis] section"]),
    ],
    ids=["bad-entry", "empty-section", "no-section"],
)
def test_a_basis_without_generators_is_located(text, expected):
    assert [issue.render() for issue in issues_of(text)] == expected


def test_converters_shape():
    doc = shipped.load_fixture("quartic")
    assert doc.to_family() is None
    assert doc.to_gauge() is None
    bracket = doc.to_bracket()
    assert bracket.arity == 2 and bracket.degree == 0
    heis = shipped.load_fixture("heis3w")
    fam = heis.to_family()
    assert fam is not None and fam.order == 2
    gauge = heis.to_gauge()
    assert gauge is not None and gauge.order == 2


def test_serialize_coefficient_rendering():
    doc = AlgebraDocument(
        basis=(("x", 0), ("y", 1), ("z", 1)),
        bracket=(),
        deltas=((("x", ((Fraction(-1), "y"), (Fraction(3, 2), "z"))),),),
        gauges=(),
        metadata=(("name", "render"),),
    )
    text = serialize_document(doc)
    assert "x: -y + 3/2 z" in text
    assert parse_document(text) == doc


# --- pinned parse outcomes over generated variants of the shipped texts ---

_EDITS = (
    ("0", "1"), ("1", "0"), ("1", "-1"), ("0", "x"), ("2", "1/0"), ("+", "-"),
    (":", " "), ("delta", "gauge"), ("gauge", "delta"), ("basis", "bracket"),
    ("[", ""), ("]", ""), (" ", "  q "),
)

_EDGE_CASES = (
    "",
    "[metadata]\nname: nobasis\n",
    "[basis 1]\nx: 0\n",
    "[basis]\nx: 0\ny: 1\n\n[delta]\nx: y\n",
    "[basis]\nx: 0\ny: 1\n\n[delta -1]\nx: y\n",
    "[basis]\nx: 0\ny: 0\n\n[gauge 0]\nx: y\n",
    "[basis]\nx: 0\ny: 0\n\n[gauge 2]\nx: y\n",
    "[basis]\nx: 0\ny: 1\n\n[delta 0]\nx: y\n\n[delta 0]\nx: y\n",
    "x: 0\n[basis]\nx: 0\n",
    "[basis]\nx: 0\ny: 1\n\n[delta 0]\nx: y +\n",
    "[basis]\nx: 0\ny: 1\n\n[delta 0]\nx:\n",
)


def document_variants() -> list[str]:
    """Every fixture text with one line dropped, one line duplicated, or one
    token edited, plus the edge cases; identical texts appear once."""
    texts: list[str] = []
    for name in shipped.fixture_names():
        lines = shipped.fixture_text(name).splitlines(keepends=True)
        for k, line in enumerate(lines):
            texts.append("".join(lines[:k] + lines[k + 1:]))
            texts.append("".join(lines[:k + 1] + lines[k:]))
            for old, new in _EDITS:
                if old in line:
                    edited = line.replace(old, new, 1)
                    texts.append("".join(lines[:k] + [edited] + lines[k + 1:]))
    return list(dict.fromkeys(texts + list(_EDGE_CASES)))


def parse_outcome(text: str):
    """The parsed fields plus the serialisation, or the issues raised."""
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        return tuple((i.line, i.field, i.message) for i in exc.issues)
    fields = (doc.basis, doc.bracket, doc.deltas, doc.gauges, doc.metadata)
    return repr(fields), serialize_document(doc)


PARSE_DIGEST = "c17331862f3f9eb27d9770bff47e126e78903b4c9dda60ddfa5ef06c71e974a8"


def is_gauge_derivation_failure(outcome) -> bool:
    """A lone issue at a [gauge N] header: xi_N is not a derivation."""
    return len(outcome) == 1 and outcome[0][2].endswith("is not a derivation of the bracket")


def test_parse_outcomes_pinned_on_generated_variants():
    # every variant parses or raises DocumentError; the six whose gauge is
    # not a derivation are pinned by the located-error test below
    digest = hashlib.sha256()
    skipped = []
    for text in document_variants():
        outcome = parse_outcome(text)
        if is_gauge_derivation_failure(outcome):
            skipped.append(text)
            continue
        digest.update(repr((text, outcome)).encode())
    assert len(skipped) == 6
    assert digest.hexdigest() == PARSE_DIGEST


def test_gauge_that_is_not_a_derivation_is_located():
    text = "[basis]\nx: 0\ny: 0\n\n[bracket]\nx x: y\n\n[gauge 1]\nx: x\n"
    assert [(i.line, i.field, i.message) for i in issues_of(text)] == [
        (8, "gauge 1", "xi_1 is not a derivation of the bracket")
    ]
    # the located issue names the failing order's own header
    heis = shipped.fixture_text("heis3w")
    lines = heis.splitlines()
    header = lines.index("[gauge 2]") + 1
    broken = "\n".join(lines + ["g0: g0"]) + "\n"
    issues = issues_of(broken)
    assert [(i.line, i.field) for i in issues] == [(header, "gauge 2")]
    for text in document_variants():
        outcome = parse_outcome(text)
        if is_gauge_derivation_failure(outcome):
            ((line, field, _),) = outcome
            assert text.splitlines()[line - 1].strip() == f"[{field}]"


def test_converters_return_the_objects_built_at_parse():
    for name in shipped.fixture_names():
        doc = shipped.load_fixture(name)
        for convert in (doc.to_basis, doc.to_bracket, doc.to_family, doc.to_gauge):
            assert convert() is convert(), (name, convert.__name__)


def test_parsing_builds_no_vector(docs, generated, monkeypatch):
    # a parsed image goes to the operation's validator as a plain coefficient
    # dict: no sparse vector is built on the way, by either constructor
    texts = {name: shipped.fixture_text(name) for name in docs}
    texts.update({name: serialize_document(doc) for name, doc in generated.items()})
    assert len(texts) == 8
    real_init, real_trusted = SparseVector.__init__, SparseVector._trusted.__func__
    built = []

    def counted_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    def counted_trusted(cls, basis, coeffs):
        built.append(cls.__name__)
        return real_trusted(cls, basis, coeffs)

    monkeypatch.setattr(SparseVector, "__init__", counted_init)
    monkeypatch.setattr(SparseVector, "_trusted", classmethod(counted_trusted))
    for name, text in texts.items():
        parse_document(text)
        assert built == [], (name, built)
    # the counters see the vectors that are built
    Element(GradedBasis(("x",), (0,)), {0: 1})
    Element._trusted(GradedBasis(("x",), (0,)), {0: 1})
    assert built == ["Element", "Element"]
