"""Generated inputs for the benchmark: direct sums, tensor products with
Q[t]/t^2 and single-constant perturbations of shipped fixtures.

Every generator works on parsed ``AlgebraDocument`` values and returns a
normalised document (serialised and parsed again), so a generated input is
exactly what a user would feed the CLI as a file.
"""

from __future__ import annotations

from fractions import Fraction

from shleibniz.document import AlgebraDocument, Terms, parse_document, serialize_document


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


def _delta0_map(doc: AlgebraDocument) -> dict[str, dict[str, Fraction]]:
    return {n: {g: c for c, g in terms} for n, terms in doc.deltas[0]}


def _squares_to_zero(delta: dict[str, dict[str, Fraction]]) -> bool:
    """delta . delta = 0 on every generator, computed on plain dicts."""
    for image in delta.values():
        out: dict[str, Fraction] = {}
        for g, c in image.items():
            for h, ch in delta.get(g, {}).items():
                out[h] = out.get(h, Fraction(0)) + c * ch
        if any(out.values()):
            return False
    return True


def _with_bump(delta, source: str, target: str):
    """delta with one added to the constant source -> target."""
    out = {n: dict(image) for n, image in delta.items()}
    image = out.setdefault(source, {})
    image[target] = image.get(target, Fraction(0)) + 1
    return out


def perturbation_candidates(doc: AlgebraDocument) -> list[tuple[str, str]]:
    """Order-0 constants source -> target along a degree chain
    (|target| = |source| + 1) whose addition breaks delta_0^2 = 0.

    The square is computed here, independently of the engine, so the
    expected verdict of a perturbed input does not rest on the code under
    test.
    """
    delta = _delta0_map(doc)
    return [
        (s, t)
        for s, ds in doc.basis
        for t, dt in doc.basis
        if dt == ds + 1 and not _squares_to_zero(_with_bump(delta, s, t))
    ]


def perturb(doc: AlgebraDocument, source: str, target: str, name: str) -> AlgebraDocument:
    """Add one to the order-0 constant source -> target."""
    bumped = _with_bump(_delta0_map(doc), source, target)
    delta0 = tuple(
        (n, tuple((c, g) for g, c in bumped[n].items() if c))
        for n, _ in doc.basis
        if any(bumped.get(n, {}).values())
    )
    return _normalise(
        AlgebraDocument(
            basis=doc.basis,
            bracket=doc.bracket,
            deltas=(delta0,) + doc.deltas[1:],
            gauges=doc.gauges,
            metadata=(("name", name),),
        )
    )
