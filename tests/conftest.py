import random

import pytest

from mrkit.corpus import (
    b1,
    b2,
    b3,
    c1,
    c2,
    c3,
    cubic_corpus,
    fa1,
    fa2,
    i3,
    mr_corpus,
    n5,
)
from mrkit.cubic import UNDEFINED, CubicAlgebra
from mrkit.filters import Filter, all_filters, as_filter, is_gfilter


@pytest.fixture(scope="session")
def B1():
    return b1()


@pytest.fixture(scope="session")
def B2():
    return b2()


@pytest.fixture(scope="session")
def B3():
    return b3()


@pytest.fixture(scope="session")
def I3():
    return i3()


@pytest.fixture(scope="session")
def C1():
    return c1()


@pytest.fixture(scope="session")
def C2():
    return c2()


@pytest.fixture(scope="session")
def C3():
    return c3()


@pytest.fixture(scope="session")
def N5():
    return n5()


@pytest.fixture(scope="session")
def FA1():
    return fa1()


@pytest.fixture(scope="session")
def FA2():
    return fa2()


@pytest.fixture(scope="session")
def corpus():
    return cubic_corpus()


@pytest.fixture(scope="session")
def mr_instances():
    return mr_corpus()


def lab(algebra, label):
    """Index of the element carrying the given label."""
    return algebra.labels.index(label)


def trivial_filter(algebra) -> Filter:
    """The filter holding the top alone."""
    return as_filter(algebra, {algebra.one})


def gfilters(algebra) -> tuple[Filter, ...]:
    """The filters that generate the whole algebra."""
    return tuple(f for f in all_filters(algebra) if is_gfilter(f))


def relabel(algebra, seed):
    """A copy of ``algebra`` with its carrier permuted by a seeded shuffle."""
    n = algebra.size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    old = [0] * n
    for x, v in enumerate(perm):
        old[v] = x

    def table(tab, value):
        return [[value(tab[old[a]][old[b]]) for b in range(n)] for a in range(n)]

    return CubicAlgebra.from_tables(
        table(algebra.leq_table, int),
        table(algebra.join_table, perm.__getitem__),
        table(algebra.delta_table, lambda d: UNDEFINED if d == UNDEFINED else perm[d]),
        perm[algebra.one], name=f"{algebra.algebra_id}~{seed}", strict=False)


def mutate(algebra, rng):
    """A raw copy with one join or one in-domain delta entry changed, so
    the tables stay well-formed and only the axioms can notice."""
    n = algebra.size
    join = [list(row) for row in algebra.join_table]
    delta = [list(row) for row in algebra.delta_table]
    if rng.random() < 0.5:
        table, x, y = join, rng.randrange(n), rng.randrange(n)
    else:
        table, x = delta, rng.randrange(n)
        y = rng.choice([y for y in range(n) if algebra.leq(y, x)])
    table[x][y] = rng.choice([v for v in range(n) if v != table[x][y]])
    return CubicAlgebra.from_tables(algebra.leq_table, join, delta,
                                    algebra.one, strict=False)
