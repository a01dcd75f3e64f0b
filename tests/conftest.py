"""Shared helpers: quick access to fixture documents and derived objects."""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

# The package under test is the one on PYTHONPATH, so that a test run can
# point at another checkout; a bare pytest falls back to this checkout.
if importlib.util.find_spec("shleibniz") is None:
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from shleibniz import fixtures as shipped  # noqa: E402
from shleibniz import graded  # noqa: E402
from shleibniz.document import AlgebraDocument  # noqa: E402
from oracles import SIGN_CACHES, family_fixture_names  # noqa: E402


@pytest.fixture(scope="session")
def docs() -> dict[str, AlgebraDocument]:
    return {name: shipped.load_fixture(name) for name in shipped.fixture_names()}


@pytest.fixture(scope="session")
def family_names() -> tuple[str, ...]:
    return family_fixture_names()


@pytest.fixture(scope="session")
def generated(docs) -> dict[str, AlgebraDocument]:
    """The dimension-8 sum and product the sparse-against-dense oracles use."""
    endo2, heis3w = docs["endo2"], docs["heis3w"]
    return {
        "endo2+heis3w": shipped.direct_sum([endo2, heis3w], ["", "r_"], "endo2+heis3w"),
        "endo2(x)Q[t]/t^2": shipped.tensor_dual_numbers(endo2, "endo2xt"),
    }


@pytest.fixture
def fresh_certificates():
    """Generic verdicts are cached for the whole process; a test that changes
    a sign must not leave its verdicts behind, nor see earlier ones."""
    for cache in SIGN_CACHES:
        cache.cache_clear()
    yield
    for cache in SIGN_CACHES:
        cache.cache_clear()


@pytest.fixture
def mutated_signs(fresh_certificates, monkeypatch):
    """Installs a mutation of the one sign source, graded.unshuffle_forms,
    which the concrete kernels (through signed_unshuffles and placements)
    and the symbolic pattern proofs both read: mutate(p, q, rows) returns
    the rows to use.  Every cached table and verdict is cleared around it."""
    real = graded.unshuffle_forms

    def install(mutate):
        for cache in SIGN_CACHES:
            cache.cache_clear()
        monkeypatch.setattr(
            graded, "unshuffle_forms", functools.cache(lambda p, q: mutate(p, q, real(p, q)))
        )

    yield install
    monkeypatch.undo()
