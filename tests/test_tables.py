"""Every algebra is a table core, and every table is the operation it
replaced: the tables of a Boolean algebra, the search struct of an
implication algebra and the cubic implication table, each checked entry
by entry against the operations."""

import itertools

import pytest

from mrkit.automorphisms import _struct
from mrkit.constructions import ImplicationAlgebra, boolean_algebra, build_I
from mrkit.corpus import b4, c2, c3
from mrkit.cubic import (
    UNDEFINED,
    _codec,
    from_json_dict,
    rows,
    to_json_dict,
)
from mrkit.errors import DeltaUndefined
from mrkit.functors import quotient_C

C4 = build_I(b4())


def called(alg, op):
    """``op`` of ``alg`` called on every pair, a None (an undefined meet)
    or a DeltaUndefined (an undefined cubic implication) as UNDEFINED."""
    def entry(x, y):
        try:
            value = getattr(alg, op)(x, y)
        except DeltaUndefined:
            return UNDEFINED
        return UNDEFINED if value is None else int(value)

    every = range(alg.size)
    return tuple(tuple(entry(x, y) for y in every) for x in every)


def reference_impl_struct(a):
    """The order, masks and totals the search struct of an implication
    algebra was built from, each entry from the operations."""
    n = a.size
    order = called(a, "leq")
    up = tuple(sum(v << y for y, v in enumerate(row)) for row in order)
    down = tuple(sum(row[x] << y for y, row in enumerate(order))
                 for x in range(n))
    return order, up, down, (called(a, "join"), called(a, "implies"))


def read_struct(struct):
    """The order, masks and totals the search reads through the struct
    of an implication algebra, its rows from the store unpadded."""
    codec, n = _codec(struct.n), struct.n
    table = lambda name: tuple(tuple(row[:n]) for row in
                               rows(struct.algebra, name, codec))
    return (table("leq"), struct.up, struct.down,
            tuple(table(name) for name, _ in struct.tables))


@pytest.mark.parametrize("n", range(6))
def test_boolean_tables_are_the_bit_operations(n):
    alg = boolean_algebra(n)
    assert isinstance(alg, ImplicationAlgebra)
    one = (1 << n) - 1
    for x, y in itertools.product(alg.elements(), repeat=2):
        assert alg.leq_table[x][y] == (x & ~y == 0) == alg.leq(x, y)
        assert alg.join_table[x][y] == x | y == alg.join(x, y)
        assert alg._meet_table[x][y] == x & y == alg.meet(x, y)
        assert alg.implies_table[x][y] == (one & ~x) | y == alg.implies(x, y)
    assert alg._up == tuple(sum(1 << y for y in alg.elements() if x & ~y == 0)
                            for x in alg.elements())
    assert alg.minimal_elements == (0,) and alg.elements() == range(1 << n)
    struct = _struct(alg)
    assert read_struct(struct) == reference_impl_struct(alg)


def test_the_collapse_of_c4():
    q = quotient_C(C4).algebra
    for op in ("leq", "join", "implies"):
        assert getattr(q, f"{op}_table") == called(q, op)
    assert q._meet_table == called(q, "meet")
    struct = _struct(q)
    assert struct is _struct(q)
    assert read_struct(struct) == reference_impl_struct(q)


@pytest.mark.parametrize("name", ["C3", "C4"])
def test_cubic_implication_table(name):
    alg = {"C3": c3(), "C4": C4}[name]
    assert alg.implies_table == called(alg, "implies")
    assert UNDEFINED not in itertools.chain(*alg.implies_table)


def mutants(doc, key):
    """Every copy of the document with one defined entry of table ``key``
    changed to another element, loaded raw."""
    n = doc["carrier"]
    for x, y, v in itertools.product(range(n), repeat=3):
        if doc[key][x][y] not in (v, UNDEFINED):
            table = [list(row) for row in doc[key]]
            table[x][y] = v
            yield from_json_dict({**doc, key: table}, strict=False)


@pytest.mark.parametrize("key", ["delta", "join"])
def test_undefined_exactly_where_implies_raises(key):
    # a reflection mutant keeps every implication defined; a join mutant
    # can put y outside the domain of delta(x v y, -), where implies raises
    loaded = undefined = 0
    for alg in mutants(to_json_dict(c2()), key):
        table = alg.implies_table
        assert table == called(alg, "implies")
        loaded += 1
        undefined += UNDEFINED in itertools.chain(*table)
    assert loaded == {"delta": 25 * 8, "join": 81 * 8}[key]
    assert (undefined > 0) == (key == "join")
