import functools

import pytest

from gradedmodels.algebra import Chain, boolean_chain, make_godel, make_lukasiewicz, resolve_chain

U3_ROWS = ((0, 0, 0), (0, 1, 2), (0, 2, 2))

# The chains every construction is checked on: the non-top-unit chain
# u3 among them.
FIVE_CHAINS = (
    boolean_chain(),
    make_lukasiewicz(3),
    make_godel(3),
    Chain(3, U3_ROWS, one=1, zero=0, name="u3"),
    make_lukasiewicz(4),
)


def uninorm_chain(size, one, zero=0, name=None):
    """The idempotent uninorm chain of ``size`` ranks with unit ``one``,
    for any one >= 1: the max when both arguments are at least ``one``,
    the min otherwise (De Baets, *Idempotent uninorms*, EJOR 118, 1999).
    With ``one`` at the top it is the Goedel chain."""
    conj = [[max(a, b) if min(a, b) >= one else min(a, b) for b in range(size)]
            for a in range(size)]
    return Chain(size, conj, one=one, zero=zero, name=name or f"uninorm{size}.{one}")


@functools.cache
def chain_named(name):
    """One of ``FIVE_CHAINS``, or any chain that ``resolve_chain`` names,
    such as ``luk:16`` or ``luk:256``, by name; built once, since the
    widest take a fraction of a second."""
    return {c.name: c for c in FIVE_CHAINS}.get(name) or resolve_chain(name)


@pytest.fixture(scope="session")
def bool_chain():
    return boolean_chain()


@pytest.fixture(scope="session")
def luk3():
    return make_lukasiewicz(3)


@pytest.fixture(scope="session")
def luk4():
    return make_lukasiewicz(4)


@pytest.fixture(scope="session")
def godel3():
    return make_godel(3)


@pytest.fixture(scope="session")
def godel4():
    return make_godel(4)


@pytest.fixture(scope="session")
def u3():
    return Chain(3, U3_ROWS, one=1, zero=0, name="u3")
