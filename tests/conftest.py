import random

import pytest

from mrkit import cubic
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
from mrkit.cubic import UNDEFINED, CubicAlgebra, _Laws
from mrkit.filters import Filter, all_filters, as_filter, is_gfilter
from mrkit.functors import CubicHom


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


@pytest.fixture(params=["tuple-rows", "short-runs"])
def layout(request, monkeypatch):
    """Tuple rows, which carriers above ``_BYTE_CARRIER`` elements read:
    every instance in the tests is smaller, so that private bound is
    lowered to 0 as a test hook.  The codec reads it when it encodes, so
    a test under this fixture runs on fresh algebras, whose rows no other
    layout encoded.  Or the rows of law f cut into runs of a few y, as on
    a carrier whose f rows pass ``_RUN`` entries: with ``_RUN`` lowered
    to 100, a run is every row on C2, 3 rows on C3 and 1 on C4."""
    if request.param == "tuple-rows":
        monkeypatch.setattr(cubic, "_BYTE_CARRIER", 0)
        assert _Laws(c2()).seq is tuple
    else:
        monkeypatch.setattr(cubic, "_RUN", 100)
        assert _Laws(c3()).span == 3


def fresh(record, **changes):
    """A copy of the record with ``changes`` to its fields and no memo
    entries of its own, built through its class's constructor, so the copy
    is validated as the record was."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def lab(algebra, label):
    """Index of the element carrying the given label."""
    return algebra.labels.index(label)


def _extreme(mask: int, masks: tuple[int, ...]) -> int:
    """The element z of ``mask`` with mask inside masks[z], or UNDEFINED,
    scanning ``mask`` upward: the reference glb scan (down-set masks) or
    lub scan (up-set masks) that the meet and join tables are read against.
    """
    m = mask
    while m:
        low = m & -m
        z = low.bit_length() - 1
        if mask & ~masks[z] == 0:
            return z
        m ^= low
    return UNDEFINED


def trivial_filter(algebra) -> Filter:
    """The filter holding the top alone."""
    return as_filter(algebra, {algebra.one})


def gfilters(algebra) -> tuple[Filter, ...]:
    """The filters that generate the whole algebra."""
    return tuple(f for f in all_filters(algebra) if is_gfilter(f))


def generated_group(algebra, autos) -> tuple[CubicHom, ...]:
    """The group generated by ``autos``, sorted by permutation: the
    reference for the chain's generators and the localization closure."""
    gens = {phi.map for phi in autos}
    perms = {CubicHom.identity(algebra).map} | gens
    # closing under composition suffices: the inverse of a permutation of
    # a finite set is one of its powers; every product is some p * g
    todo = list(perms)
    while todo:
        p = todo.pop()
        for q in (tuple(p[v] for v in g) for g in gens):
            if q not in perms:
                perms.add(q)
                todo.append(q)
    return tuple(CubicHom(algebra, algebra, p) for p in sorted(perms))


def relabelling(n, seed) -> list[int]:
    """The seeded shuffle of range(n) that :func:`relabel` applies:
    element x of the algebra becomes element perm[x] of the copy."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def relabel(algebra, seed):
    """A copy of ``algebra`` with its carrier permuted by a seeded shuffle."""
    n = algebra.size
    perm = relabelling(n, seed)
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
