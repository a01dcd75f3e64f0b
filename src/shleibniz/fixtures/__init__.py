"""Shipped example algebras, and sums and products generated from them.

The ``.alg`` files next to this module are the corpus; ``fixture_names``
lists them and ``load_fixture`` parses one.  Why each one ships:

- ``abelian3``: abelian dg algebra, one generator per degree; every bracket
  vanishes.
- ``endo2``: graded commutator on the matrix units of a complex in degrees 0
  and 1; ad E10 at orders 0-3 keeps derived brackets nonzero up to arity 4.
- ``heis3w``: Heisenberg dg Lie algebra with g0 -> h at orders 0 to 2.
- ``heisab``: the abelian span of a and a1 is closed under the derived
  brackets, since the order-1 component a -> h gives {h, a} = a1.
- ``l2b``: not Lie, as {e, e} = c; its inner gauge {e, -} is square-zero, so
  the gauge exponential has exactly two terms.
- ``quartic``: {v, v} = w, so the odd v passes at first order but is not
  integrable to a Maurer-Cartan element; no family, hosts the rejection test.

``direct_sum`` and ``tensor_dual_numbers`` build larger inputs from parsed
documents.  Each returns a normalised (serialised and parsed again) document,
exactly what a user would feed the CLI as a file.
"""

from __future__ import annotations

from importlib import resources

from ..document import AlgebraDocument, Terms, parse_document, serialize_document


def fixture_names() -> tuple[str, ...]:
    """The packaged ``.alg`` files' names, in sorted order."""
    files = [f.name for f in resources.files(__package__).iterdir()]
    return tuple(sorted(f.removesuffix(".alg") for f in files if f.endswith(".alg")))


def fixture_text(name: str) -> str:
    if name not in fixture_names():
        raise KeyError(f"unknown fixture {name!r}")
    return resources.files(__package__).joinpath(f"{name}.alg").read_text("utf-8")


def load_fixture(name: str) -> AlgebraDocument:
    return parse_document(fixture_text(name))


def _normalise(doc: AlgebraDocument) -> AlgebraDocument:
    return parse_document(serialize_document(doc))


def _rename_terms(terms: Terms, prefix: str) -> Terms:
    return tuple((c, prefix + n) for c, n in terms)


def _rename_entries(entries, prefix: str):
    return tuple((prefix + n, _rename_terms(t, prefix)) for n, t in entries)


def _pad(sections: tuple, length: int) -> tuple:
    return sections + ((),) * (length - len(sections))


def direct_sum(
    docs: list[AlgebraDocument], prefixes: list[str], name: str
) -> AlgebraDocument:
    """Block-diagonal sum: generator names prefixed, brackets between
    summands zero, deltas and gauges added summand by summand with shorter
    summands padded by zero orders."""
    if len(docs) != len(prefixes) or len(set(prefixes)) != len(prefixes):
        raise ValueError("need one distinct prefix per summand")
    n_deltas = max(len(d.deltas) for d in docs)
    n_gauges = max(len(d.gauges) for d in docs)
    basis, bracket = [], []
    deltas = [[] for _ in range(n_deltas)]
    gauges = [[] for _ in range(n_gauges)]
    for doc, p in zip(docs, prefixes):
        basis += [(p + n, deg) for n, deg in doc.basis]
        bracket += [(p + a, p + b, _rename_terms(t, p)) for a, b, t in doc.bracket]
        for out, section in zip(deltas, _pad(doc.deltas, n_deltas)):
            out.extend(_rename_entries(section, p))
        for out, section in zip(gauges, _pad(doc.gauges, n_gauges)):
            out.extend(_rename_entries(section, p))
    return _normalise(
        AlgebraDocument(
            basis=tuple(basis),
            bracket=tuple(bracket),
            deltas=tuple(tuple(s) for s in deltas),
            gauges=tuple(tuple(s) for s in gauges),
            metadata=(("name", name),),
        )
    )


def tensor_dual_numbers(doc: AlgebraDocument, name: str) -> AlgebraDocument:
    """V (x) Q[t]/t^2 with t in degree 0.

    Generator x t^i is named ``x`` for i = 0 and ``t_x`` for i = 1; the
    bracket is {x t^i, y t^j} = {x, y} t^(i+j) (zero once t^2 appears), and
    every delta and gauge acts as op (x) 1.  t has degree 0 and Q[t]/t^2 is
    commutative, so no Koszul signs enter.
    """
    powers = ("", "t_")
    basis = [(p + n, deg) for p in powers for n, deg in doc.basis]
    bracket = []
    for i, pi in enumerate(powers):
        for j, pj in enumerate(powers):
            if i + j < len(powers):
                out = powers[i + j]
                bracket += [(pi + a, pj + b, _rename_terms(t, out)) for a, b, t in doc.bracket]
    return _normalise(
        AlgebraDocument(
            basis=tuple(basis),
            bracket=tuple(bracket),
            deltas=tuple(sum((_rename_entries(s, p) for p in powers), ()) for s in doc.deltas),
            gauges=tuple(sum((_rename_entries(s, p) for p in powers), ()) for s in doc.gauges),
            metadata=(("name", name),),
        )
    )
