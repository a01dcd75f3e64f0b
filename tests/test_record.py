"""Value semantics of the record types: equality and hashing by public
field, the dataclass repr, refused assignment and deletion, and copies.

Each record type keeps the semantics it had as a frozen (or, for Verdict,
CheckResult and Report, plain) dataclass: equal by its public fields and
only to its own class, with ``_`` slots taking no part; hashable exactly
when it was; and shown as the dataclass repr.  Unlike a plain dataclass,
none accepts assignment.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from shleibniz import fixtures as shipped
from shleibniz.coalgebra import CoderivationSpec, TensorElement
from shleibniz.derived import DeformationFamily, ShLeibnizStructure, build_sh_structure
from shleibniz.document import AlgebraDocument
from shleibniz.errors import DocumentIssue
from shleibniz.gauge import GaugeFamily, McElement
from shleibniz.graded import Element, GradedBasis, Permutation
from shleibniz.multiop import LeibnizAlgebra, MultiOp
from shleibniz.report import CheckResult, Report
from shleibniz.results import Verdict, Violation


def basis() -> GradedBasis:
    return GradedBasis(("x", "y"), (0, 1))


def endo2() -> AlgebraDocument:
    return shipped.load_fixture("endo2")


def family() -> DeformationFamily:
    return endo2().to_family()


def check() -> CheckResult:
    return CheckResult("document", True, detail=["basis: 4"])


# type -> (a new instance, a new instance with one public field changed);
# every call builds every object afresh, so equal instances share nothing
CASES = {
    DocumentIssue: (
        lambda: DocumentIssue(3, "bracket", "malformed term"),
        lambda: DocumentIssue(4, "bracket", "malformed term"),
    ),
    Violation: (
        lambda: Violation("skewsymmetry", ("x", "y"), Element(basis(), {1: 2}), "swap@1"),
        lambda: Violation("skewsymmetry", ("x", "y"), Element(basis(), {1: 3}), "swap@1"),
    ),
    Verdict: (
        lambda: Verdict(False, [Violation("sh", (3,))], ["Const=7 vacuous"]),
        lambda: Verdict(False, [Violation("sh", (3,))], ["Const=8 vacuous"]),
    ),
    CheckResult: (check, lambda: CheckResult("document", None, detail=["basis: 4"])),
    Report: (
        lambda: Report("validate", "endo2", [("max_const", 6)], [check()], 3),
        lambda: Report("validate", "endo2", [("max_const", 6)], [check()], 4),
    ),
    GradedBasis: (basis, lambda: GradedBasis(("x", "y"), (0, -1))),
    Permutation: (lambda: Permutation((2, 3, 1)), lambda: Permutation((3, 1, 2))),
    CoderivationSpec: (
        lambda: CoderivationSpec(family().basis, 1, {1: family().deltas[0]}),
        lambda: CoderivationSpec(family().basis, 1, {1: family().deltas[0].scale(2)}),
    ),
    DeformationFamily: (
        family,
        lambda: DeformationFamily(family().bracket, family().deltas[:-1]),
    ),
    ShLeibnizStructure: (
        lambda: build_sh_structure(family()),
        lambda: ShLeibnizStructure(
            build_sh_structure(family()).basis, build_sh_structure(family()).ops[:-1]
        ),
    ),
    GaugeFamily: (
        lambda: endo2().to_gauge(),
        lambda: GaugeFamily(endo2().to_gauge().bracket, endo2().to_gauge().xis[:1]),
    ),
    McElement: (
        lambda: McElement((Element(basis(), {1: 1}),)),
        lambda: McElement((Element(basis(), {1: 1}), Element(basis(), {1: 1}))),
    ),
    AlgebraDocument: (
        endo2,
        lambda: AlgebraDocument(*[getattr(endo2(), f) for f in FIELDS[AlgebraDocument][:-1]]),
    ),
}
# the public fields, in the order of the constructor's parameters
FIELDS = {
    DocumentIssue: ("line", "field", "message"),
    Violation: ("check", "site", "residual", "detail"),
    Verdict: ("passed", "violations", "notes"),
    CheckResult: ("name", "passed", "violations", "detail"),
    Report: ("command", "document", "options", "results", "elapsed_ms"),
    GradedBasis: ("names", "degrees"),
    Permutation: ("images",),
    CoderivationSpec: ("basis", "degree", "components"),
    DeformationFamily: ("bracket", "deltas"),
    ShLeibnizStructure: ("basis", "ops"),
    GaugeFamily: ("bracket", "xis"),
    McElement: ("thetas",),
    AlgebraDocument: ("basis", "bracket", "deltas", "gauges", "metadata"),
}
# what each type derives from its fields once, at construction
PRIVATE = {
    GradedBasis: ("_positions",),
    AlgebraDocument: ("_basis", "_bracket", "_family", "_gauge"),
}
# a dict field, as CoderivationSpec's, or an operation, which defines no hash,
# made the frozen dataclass raise TypeError on hash; the rest were not frozen
UNHASHABLE = {
    Verdict, CheckResult, Report, CoderivationSpec, DeformationFamily, ShLeibnizStructure,
    GaugeFamily,
}
TYPES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def attributes(cls: type) -> tuple[str, ...]:
    return FIELDS[cls] + PRIVATE.get(cls, ())


def test_every_record_type_is_covered():
    assert len(CASES) == 13 and CASES.keys() == FIELDS.keys()
    assert UNHASHABLE | PRIVATE.keys() <= CASES.keys()
    # AlgebraDocument's changed case drops its last field, metadata, to its default
    assert FIELDS[AlgebraDocument][-1] == "metadata" and endo2().metadata


@TYPES
def test_the_constructor_takes_the_public_fields_in_order(cls):
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]
    a = CASES[cls][0]()
    assert cls(**{f: getattr(a, f) for f in FIELDS[cls]}) == a


@TYPES
def test_equal_values_compare_equal_and_hash_equal_when_hashable(cls):
    make, _ = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and a == a and not a != a
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@TYPES
def test_another_class_or_a_changed_public_field_compares_unequal(cls):
    make, changed = CASES[cls]
    a, other = make(), changed()
    assert a != other and not a == other
    assert sum(getattr(a, f) != getattr(other, f) for f in FIELDS[cls]) == 1
    # the same slots under a subclass, as a dataclass compares: same class only
    sub_cls = type(cls.__name__, (cls,), {"__slots__": ()})
    sub = object.__new__(sub_cls)
    for name in attributes(cls):
        object.__setattr__(sub, name, getattr(a, name))
    assert a != sub and sub != a and not a == sub
    assert a != tuple(getattr(a, f) for f in FIELDS[cls])


@TYPES
def test_the_repr_is_the_dataclass_repr(cls):
    a = CASES[cls][0]()
    fields = FIELDS[cls]
    shaped = dataclasses.make_dataclass(cls.__name__, fields)
    assert repr(a) == repr(shaped(*[getattr(a, f) for f in fields]))


@pytest.mark.parametrize("cls", list(PRIVATE), ids=lambda cls: cls.__name__)
def test_underscore_slots_take_no_part_in_equality_hash_or_repr(cls):
    make, _ = CASES[cls]
    a, b = make(), make()
    for name in PRIVATE[cls]:
        object.__setattr__(b, name, object())
        assert name not in repr(a)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)


@TYPES
def test_assigning_or_deleting_an_attribute_raises(cls):
    a = CASES[cls][0]()
    before = repr(a)
    for name in attributes(cls) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == before and a == CASES[cls][0]()


def test_operations_vectors_and_algebras_refuse_assignment_and_deletion():
    doc = endo2()
    algebra = LeibnizAlgebra(doc.to_basis(), doc.to_bracket())
    for obj in (Element(basis(), {0: 1}), doc.to_bracket(), algebra):
        for name in list(type(obj).__slots__) + ["extra"]:
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(obj, name)
    # an algebra is no record: it compares by identity, as before
    assert algebra != LeibnizAlgebra(doc.to_basis(), doc.to_bracket())


def test_operations_and_vectors_compare_by_value_and_only_vectors_hash():
    # equal over equal bases, unequal to another class; an operation holds
    # a dict of constants and stays unhashable
    bracket, again = endo2().to_bracket(), endo2().to_bracket()
    assert type(bracket) is MultiOp and bracket == again and not bracket != again
    assert bracket != bracket.scale(2) and bracket != endo2().to_family().deltas[0]
    with pytest.raises(TypeError):
        hash(bracket)
    x, y = Element(basis(), {0: 1, 1: 2}), Element(basis(), {1: 2, 0: 1})
    assert x == y and hash(x) == hash(y) and x != x.scale(2)
    assert x != TensorElement(basis(), {(0,): 1, (1,): 2})
    assert copy.copy(bracket) == bracket and copy.copy(x) == x


@TYPES
def test_a_copy_keeps_the_value(cls):
    # a copy is built from the fields through the constructor, operations
    # and vectors included
    a = CASES[cls][0]()
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
