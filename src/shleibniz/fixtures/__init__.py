"""Shipped example algebras, as documents and as parsed objects.

Each fixture exists twice: as a builder here (the reference object) and as
an ``.alg`` file next to this module (the reference text).  Tests assert
the two agree, so either can be treated as the source of truth.

Every fixture that carries a deformation family also carries a designated
single-constant perturbation, chosen so that adding that one constant to
the named delta component breaks the square-zero ladder with a residual
that both verification routes detect.  The perturbations all target the
order-0 component along a degree chain d -> d+1 -> d+2, because an order-0
residual is the arity-one component of the squared codifferential and is
therefore visible no matter how degenerate the bracket is; residuals at
higher order can be annihilated by a bracket with a short top degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..document import AlgebraDocument, Terms, parse_document
from ..derived import DeformationFamily
from ..gauge import McElement
from ..graded import Element, Scalar, exact
from ..multiop import MultiOp


def _terms(*pairs: tuple[Scalar, str]) -> Terms:
    return tuple((exact(c), n) for c, n in pairs)


def build_l2b() -> AlgebraDocument:
    """Non-Lie Leibniz algebra: one even generator squaring to a centre.

    The bracket {e,e} = c is not antisymmetrisable.  The family repeats
    the differential e -> b at orders 0 and 1; the gauge generator is the
    inner derivation {e,-}, which is square-zero, so its exponential
    series has exactly two terms.
    """
    return AlgebraDocument(
        basis=(("e", 0), ("c", 0), ("b", 1), ("w", 2)),
        bracket=(("e", "e", _terms((1, "c"))),),
        deltas=(
            (("e", _terms((1, "b"))),),
            (("e", _terms((1, "b"))),),
        ),
        gauges=((("e", _terms((1, "c"))),),),
        metadata=(
            ("name", "l2b"),
            ("notes", "non-Lie Leibniz algebra, square-zero inner gauge"),
        ),
    )


def build_abelian3() -> AlgebraDocument:
    """Three-dimensional abelian dg algebra, one generator per degree."""
    return AlgebraDocument(
        basis=(("x0", 0), ("x1", 1), ("x2", 2)),
        bracket=(),
        deltas=(
            (("x0", _terms((1, "x1"))),),
            (("x0", _terms((1, "x1"))),),
        ),
        gauges=((("x0", _terms((1, "x0"))),),),
        metadata=(
            ("name", "abelian3"),
            ("notes", "abelian chain, all brackets vanish"),
        ),
    )


def build_endo2() -> AlgebraDocument:
    """Endomorphisms of a two-term complex under the graded commutator.

    Matrix units E_ij send the j-th generator of the complex to the i-th;
    with the complex concentrated in degrees 0 and 1 this grades the four
    units as -1, 0, 0, +1.  The differential is the inner derivation by
    E10 at every order through 3, giving a depth-4 family whose derived
    brackets are nonzero up to arity 4.  The two gauge generators are the
    inner derivations by the even idempotents.
    """
    return AlgebraDocument(
        basis=(("E01", -1), ("E00", 0), ("E11", 0), ("E10", 1)),
        bracket=(
            ("E01", "E00", _terms((-1, "E01"))),
            ("E01", "E11", _terms((1, "E01"))),
            ("E01", "E10", _terms((1, "E00"), (1, "E11"))),
            ("E00", "E01", _terms((1, "E01"))),
            ("E00", "E10", _terms((-1, "E10"))),
            ("E11", "E01", _terms((-1, "E01"))),
            ("E11", "E10", _terms((1, "E10"))),
            ("E10", "E01", _terms((1, "E00"), (1, "E11"))),
            ("E10", "E00", _terms((1, "E10"))),
            ("E10", "E11", _terms((-1, "E10"))),
        ),
        deltas=tuple(
            (
                ("E01", _terms((1, "E00"), (1, "E11"))),
                ("E00", _terms((1, "E10"))),
                ("E11", _terms((-1, "E10"))),
            )
            for _ in range(4)
        ),
        gauges=(
            (
                ("E01", _terms((1, "E01"))),
                ("E10", _terms((-1, "E10"))),
            ),
            (
                ("E01", _terms((-1, "E01"))),
                ("E10", _terms((1, "E10"))),
            ),
        ),
        metadata=(
            ("name", "endo2"),
            ("notes", "graded commutator algebra of a two-term complex"),
        ),
    )


def build_heisab() -> AlgebraDocument:
    """Heisenberg-type dg Lie algebra with an abelian graded subalgebra.

    The span of a and a1 is abelian and closed under both the order-0
    differential a -> a1 and the binary derived bracket of the order-1
    component a -> h, since {h,a} = a1 lands back in the span.  The
    degree-2 generator w receives the designated perturbation.
    """
    return AlgebraDocument(
        basis=(("a", 0), ("a1", 1), ("h", 1), ("w", 2)),
        bracket=(
            ("a", "h", _terms((-1, "a1"))),
            ("h", "a", _terms((1, "a1"))),
        ),
        deltas=(
            (("a", _terms((1, "a1"))),),
            (("a", _terms((1, "h"))),),
        ),
        gauges=((("h", _terms((1, "a1"))),),),
        metadata=(
            ("name", "heisab"),
            ("notes", "dg Lie algebra with abelian subalgebra spanned by a, a1"),
        ),
    )


def build_heis3w() -> AlgebraDocument:
    """Heisenberg dg Lie algebra with a repeated differential at depth 3."""
    return AlgebraDocument(
        basis=(("g0", 0), ("g1", 1), ("h", 1), ("w", 2)),
        bracket=(
            ("g0", "h", _terms((-1, "g1"))),
            ("h", "g0", _terms((1, "g1"))),
        ),
        deltas=(
            (("g0", _terms((1, "h"))),),
            (("g0", _terms((1, "h"))),),
            (("g0", _terms((1, "h"))),),
        ),
        gauges=(
            (
                ("g0", _terms((1, "g0"))),
                ("g1", _terms((1, "g1"))),
            ),
            (("h", _terms((1, "g1"))),),
        ),
        metadata=(
            ("name", "heis3w"),
            ("notes", "heisenberg algebra, depth-3 constant family"),
        ),
    )


def build_quartic() -> AlgebraDocument:
    """Graded Lie algebra whose odd generator has a nonzero square bracket.

    {v,v} = w makes the half-square of v a nonzero obstruction, so v is
    not a Maurer-Cartan element even though it passes at first order.
    Ships without a deformation family; it hosts the rejection test.
    """
    return AlgebraDocument(
        basis=(("u", 0), ("v", 1), ("w", 2)),
        bracket=(
            ("u", "v", _terms((1, "v"))),
            ("u", "w", _terms((2, "w"))),
            ("v", "u", _terms((-1, "v"))),
            ("v", "v", _terms((1, "w"))),
            ("w", "u", _terms((-2, "w"))),
        ),
        deltas=(),
        gauges=(),
        metadata=(
            ("name", "quartic"),
            ("notes", "graded Lie algebra with a non-integrable odd element"),
        ),
    )


_BUILDERS = {
    "l2b": build_l2b,
    "abelian3": build_abelian3,
    "endo2": build_endo2,
    "heisab": build_heisab,
    "heis3w": build_heis3w,
    "quartic": build_quartic,
}


@dataclass(frozen=True)
class Perturbation:
    """One structure constant added to one delta component."""

    order: int
    source: str
    target: str
    amount: Scalar


# designed so that (delta_0 + tweak)^2 is nonzero on some generator,
# except endo2 where the chain runs through the existing delta_0
_PERTURBATIONS = {
    "l2b": Perturbation(0, "b", "w", 1),
    "abelian3": Perturbation(0, "x1", "x2", 1),
    "endo2": Perturbation(0, "E01", "E00", 1),
    "heisab": Perturbation(0, "a1", "w", 1),
    "heis3w": Perturbation(0, "h", "w", 1),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def family_fixture_names() -> tuple[str, ...]:
    """Fixtures shipping a deformation family, in sorted order."""
    return tuple(n for n in fixture_names() if _BUILDERS[n]().deltas)


def build_fixture(name: str) -> AlgebraDocument:
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}")
    return _BUILDERS[name]()


def fixture_text(name: str) -> str:
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}")
    return (
        resources.files(__package__).joinpath(f"{name}.alg").read_text("utf-8")
    )


def load_fixture(name: str) -> AlgebraDocument:
    return parse_document(fixture_text(name))


def perturbation(name: str) -> Perturbation:
    if name not in _PERTURBATIONS:
        raise KeyError(f"fixture {name!r} has no designated perturbation")
    return _PERTURBATIONS[name]


def perturbed_family(doc: AlgebraDocument, tweak: Perturbation) -> DeformationFamily:
    """Family with ``tweak.amount * (source -> target)`` added at one order."""
    fam = doc.to_family()
    if fam is None:
        raise ValueError(f"document {doc.name!r} has no deformation family")
    basis = fam.basis
    bump = MultiOp(
        basis,
        1,
        1,
        {
            (basis.index(tweak.source),): Element(
                basis, {basis.index(tweak.target): tweak.amount}
            )
        },
    )
    deltas = list(fam.extended(max(fam.order, tweak.order)).deltas)
    deltas[tweak.order] = deltas[tweak.order] + bump
    return DeformationFamily(fam.bracket, tuple(deltas))


def mc_element(name: str) -> McElement:
    """Maurer-Cartan candidates: accepted on endo2, rejected on quartic."""
    doc = build_fixture(name)
    basis = doc.to_basis()
    if name == "endo2":
        theta = Element(basis, {basis.index("E10"): 1})
    elif name == "quartic":
        theta = Element(basis, {basis.index("v"): 1})
    else:
        raise KeyError(f"fixture {name!r} has no Maurer-Cartan candidate")
    return McElement((theta,))


def abelian_subalgebra(name: str) -> tuple[str, ...]:
    """Generators of the abelian, derived-bracket-closed subalgebra."""
    if name != "heisab":
        raise KeyError(f"fixture {name!r} has no designated abelian subalgebra")
    return ("a", "a1")
