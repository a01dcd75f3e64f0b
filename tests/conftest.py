"""Shared helpers: quick access to fixture documents and derived objects."""

from __future__ import annotations

import pytest

from shleibniz import fixtures as shipped
from shleibniz.document import AlgebraDocument
from oracles import family_fixture_names


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
