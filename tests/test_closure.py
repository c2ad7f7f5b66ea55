"""The semi-naive mask closure against the pairwise closure it replaced.

``close_mask`` backs the filter closure, the join/reflection closure, the
upward-closed subalgebras, the localization core and the seeded corpus;
``close_under`` is the naive closure those routines used before, kept here
as the reference.
"""

import ast
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrkit.automorphisms import (
    _caret_rows,
    enumerate_aut,
    localize_closure,
)
from mrkit.constructions import boolean_algebra, build_I
from mrkit.corpus import b3, c2, c3, cubic_corpus, seeded_implication_algebras
from mrkit.cubic import UNDEFINED, CubicAlgebra, _bits, close_mask
from mrkit.errors import InvalidAlgebra
from mrkit.filters import (
    all_filters,
    as_filter,
    generated_subalgebra,
    subalgebra_closure,
)
from mrkit.functors import quotient_C

from conftest import fresh, generated_group, mutate, relabel


# -- references ----------------------------------------------------------------

def close_under(seed, *ops) -> set:
    """The least superset of ``seed`` closed under the binary ``ops``; an
    op returns None where it is undefined."""
    members = set(seed)
    while True:
        new = {v for op in ops for x in members for y in members
               if (v := op(x, y)) is not None}
        if new <= members:
            return members
        members |= new


def reflection(algebra):
    """delta(u, v) as a partial binary op, defined for v <= u."""
    leq, dl = algebra.leq_table, algebra.delta_table
    return lambda u, v: dl[u][v] if leq[v][u] else None


def alternating_core(algebra, seeds, group):
    """The localization core as it was computed before the kernel: caret
    closure and orbit closure in turn until neither adds an element."""
    z = set(seeds) or {algebra.one}
    while True:
        carets = close_under(z, algebra.caret)
        orbit = {phi.map[y] for phi in group for y in carets}
        grown = carets | orbit
        if grown <= z:
            return z
        z |= grown


def rejecting_sampler(seed, count, max_size=8):
    """The member sets of ``seeded_implication_algebras`` as the sampler
    drew them before the kernel, rejecting closures above ``max_size``."""
    rng = random.Random(seed)
    base = b3()
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 10000:
            raise RuntimeError("seeded sampling failed to converge")
        seed_set = {base.one}
        for x in base.elements():
            if rng.random() < 0.4:
                seed_set.add(x)
        closure = close_under(seed_set, base.join, base.implies)
        if len(closure) > max_size:
            continue
        out.append(closure)
    return out


def mask(elements) -> int:
    return sum(1 << x for x in elements)


def index_table(n, op) -> tuple:
    """Entry [x][y] is op(x, y), UNDEFINED where ``op`` gives None: a
    binary op in the form ``close_mask`` reads."""
    return tuple(tuple(UNDEFINED if (z := op(x, y)) is None else z
                       for y in range(n)) for x in range(n))


C3 = c3()
C4_RELABELLED = relabel(build_I(boolean_algebra(4)), 3)


# -- the kernel on random ops ------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_random_partial_ops(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    maps = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    tables = [[[rng.randrange(n) if rng.random() < 0.3 else None
                for _ in range(n)] for _ in range(n)]
              for _ in range(rng.randint(0, 2))]
    unary = [tuple(1 << f[x] for x in range(n)) for f in maps]
    binary = []
    for t in tables:
        rows = index_table(n, lambda x, y, t=t: t[x][y])
        binary += [rows, tuple(zip(*rows))]
    ops = [lambda x, y, f=f: f[x] for f in maps]
    ops += [lambda x, y, t=t: t[x][y] for t in tables]
    for _ in range(10):
        seed_set = {x for x in range(n) if rng.random() < 0.2}
        assert set(_bits(close_mask(mask(seed_set), unary, binary))) == \
            close_under(seed_set, *ops)


def test_empty_mask_and_no_ops():
    rows = index_table(3, lambda x, y: 2)
    assert close_mask(0, (), (rows,)) == 0
    # with no op there is no carrier size to stop at: every mask is closed
    for m in (0, 0b101, (1 << 81) - 1, 1 << 200):
        assert close_mask(m) == close_mask(m, (), ()) == m
    assert close_mask(0b001, ((0b010, 0b100, 0b000),)) == 0b111


def test_an_undefined_row_never_adds_the_last_element():
    # UNDEFINED is -1: a lookup padded for it would wrap to bit n - 1
    # without any error
    nowhere = index_table(5, lambda x, y: None)
    for m in range(1, 1 << 4):
        assert close_mask(m, (), (nowhere,)) == m


# -- the full-carrier exit -------------------------------------------------------

class Rows(tuple):
    """Index rows that record which rows a closure reads."""

    def __new__(cls, rows, read):
        self = super().__new__(cls, rows)
        self.read = read
        return self

    def __getitem__(self, x):
        self.read.append(x)
        return super().__getitem__(x)


def first_round(seed, *ops) -> set:
    """The seed with one application of the ops to its own elements."""
    return set(seed) | {v for op in ops for x in seed for y in seed
                        if (v := op(x, y)) is not None}


@pytest.mark.parametrize("alg", [C3, C4_RELABELLED], ids=["C3", "C4~3"])
def test_closures_that_reach_the_carrier(alg):
    # seeds whose closure is the whole carrier after the first round, and
    # after a later round; the exit must not change the closure
    join, reflect = alg.join, reflection(alg)
    carrier = set(alg.elements())
    rng = random.Random(f"exit-{alg.size}")
    seeds = [f.members for f in all_filters(alg)[::3]]
    seeds += [rng.sample(range(alg.size), rng.randint(1, 4)) for _ in range(100)]
    rounds = {"first": 0, "later": 0}
    for seed_set in seeds:
        want = close_under(seed_set, join, reflect)
        assert subalgebra_closure(alg, seed_set) == want
        if want == carrier:
            rounds["first" if first_round(seed_set, join, reflect) == carrier
                   else "later"] += 1
    assert rounds["first"] > 0 and rounds["later"] > 0, rounds


def test_a_full_mask_reads_no_row():
    read = []
    rows = Rows(index_table(4, lambda x, y: (x + y) % 4), read)
    assert close_mask(0b1111, (), (rows,)) == 0b1111
    assert close_mask(0b1111, ((1, 2, 4, 8),), (rows,)) == 0b1111
    assert read == []
    # {0} is closed (0 + 0 = 0): one round reads row 0 and ends
    assert close_mask(0b0001, (), (rows,)) == 0b0001
    assert read == [0]
    read.clear()
    # 1 + 1 = 2, then 1 + 2 = 3 fills the carrier; the rows of 3 are
    # never read
    assert close_mask(0b0011, (), (rows,)) == 0b1111
    assert 3 not in read


def test_generated_subalgebra_still_checks_a_partial_sweep():
    # a sweep short of the carrier is closed under join and reflection by
    # the kernel; a join that carries it outside is reported as before.
    # The copy of C3 with one join entry moved is well formed, not cubic.
    alg = relabel(C3, 7)
    one, other = alg.one, (alg.one + 1) % alg.size
    escaping = tuple(tuple(other if (x, y) == (one, one) else v
                           for y, v in enumerate(row))
                     for x, row in enumerate(alg.join_table))
    broken = fresh(alg, join_table=escaping)
    top = as_filter(broken, {one})
    with pytest.raises(InvalidAlgebra) as err:
        generated_subalgebra(top)
    named = ast.literal_eval(re.search(r"\[.*\]", str(err.value))[0])
    assert other in named and one not in named
    # a sweep that is the whole carrier needs no check: the join rows
    # are never read
    read = []
    broken = fresh(alg, join_table=Rows(escaping, read))
    read.clear()  # construction validates the rows
    whole = [f for f in all_filters(broken) if len(f) == 8]  # vertex filters
    assert whole and all(generated_subalgebra(f) == set(alg.elements())
                         for f in whole)
    assert read == []


# -- join and reflection ---------------------------------------------------------

@pytest.mark.parametrize("alg,count", [(C3, 64), (C4_RELABELLED, 256)],
                         ids=["C3", "C4~3"])
def test_join_reflection_closure_of_every_filter(alg, count):
    filters = all_filters(alg)
    assert len(filters) == count
    for filt in filters:
        want = frozenset(close_under(filt.members, alg.join, reflection(alg)))
        assert subalgebra_closure(alg, filt.members) == want
        assert generated_subalgebra(filt) == want


@pytest.mark.parametrize("alg", [C3, C4_RELABELLED], ids=["C3", "C4~3"])
def test_join_reflection_closure_of_seeded_sets(alg):
    # unlike a filter, a small set needs the reflection's transpose:
    # without it about one closure in seven comes out too small
    rng = random.Random(alg.size)
    for _ in range(100):
        seed_set = rng.sample(range(alg.size), rng.randint(1, 4))
        assert subalgebra_closure(alg, seed_set) == \
            close_under(seed_set, alg.join, reflection(alg))


def test_generated_subalgebra_reports_the_escaping_elements():
    # single-entry mutations of C2 keep the order, so C2's 16 filters
    # stay; a changed join or reflection entry can carry a one-sweep set
    # outside itself
    rng = random.Random("C2-sweeps")
    mutants = raised = 0
    for _ in range(400):
        alg = mutate(c2(), rng)
        join, reflect = alg.join, reflection(alg)
        hit = False
        for filt in all_filters(alg):
            swept = {alg.delta(x, y) for x in filt.members
                     for y in filt.members if alg.leq(y, x)}
            step = {v for op in (join, reflect) for x in swept for y in swept
                    if (v := op(x, y)) is not None} - swept
            if not step:
                assert generated_subalgebra(filt) == swept
                continue
            hit = True
            raised += 1
            with pytest.raises(InvalidAlgebra) as err:
                generated_subalgebra(filt)
            named = ast.literal_eval(re.search(r"\[.*\]", str(err.value))[0])
            # every element one step outside is named, and nothing that
            # the closure does not reach
            assert step <= set(named) <= close_under(swept, join, reflect) - swept
        mutants += hit
    assert (mutants, raised) == (223, 525)


# -- closed parents and the stop rule ----------------------------------------------

def _closures(name, alg):
    """(id, base, unary, binary): the closures FCbO runs on ``alg``, the
    filter closure (whose sets hold the top) and, on a cubic algebra, the
    upward-closed subalgebra and join/reflection closures."""
    yield f"{name}-filter", 1 << alg.one, (alg._up,), (alg._meet_table,)
    if isinstance(alg, CubicAlgebra):
        dl = alg.delta_table
        reach = tuple(up | sum(1 << dl[x][y] for x in _bits(up))
                      for y, up in enumerate(alg._up))
        yield f"{name}-upward", 0, (reach,), ()
        yield f"{name}-subalgebra", 0, (), (alg.join_table, dl,
                                            alg._delta_transpose)


KERNEL = [case for name, alg in [
    *cubic_corpus(), ("C4~3", C4_RELABELLED),
    *((f"{name}-collapse", quotient_C(alg).algebra)
      for name, alg in cubic_corpus())] for case in _closures(name, alg)]


@pytest.mark.parametrize("name,base,unary,binary", KERNEL,
                         ids=[case[0] for case in KERNEL])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_closed_parent_and_a_stop_keep_the_closure(name, base, unary,
                                                     binary, data):
    n = len((unary or binary)[0])
    seed = mask(data.draw(st.sets(st.integers(0, n - 1), max_size=3)))
    parent = close_mask(seed | base, unary, binary)
    outside = [j for j in range(n) if not parent >> j & 1]
    assume(outside)
    j = data.draw(st.sampled_from(outside))
    start, want = parent | 1 << j, close_mask(parent | 1 << j, unary, binary)
    assert close_mask(start, unary, binary, parent) == want
    stop = data.draw(st.one_of(st.just((1 << j) - 1 & ~parent),
                               st.integers(0, (1 << n) - 1)))
    got = close_mask(start, unary, binary, parent, stop)
    assert not start & ~got and not got & ~want  # between start and closure
    assert bool(got & stop) == bool(want & stop)
    assert got & stop or got == want


# -- carets and orbits -----------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_localization_core_matches_the_alternating_loop(seed):
    rng = random.Random(seed)
    autos = enumerate_aut(C3)
    seeds = rng.sample(range(C3.size), rng.randint(0, 3))
    gens = [autos[rng.randrange(len(autos))] for _ in range(rng.randint(0, 2))]
    group = generated_group(C3, gens)
    assert {phi.map for phi in group} == close_under(
        {tuple(range(C3.size))} | {phi.map for phi in gens},
        lambda p, r: tuple(p[v] for v in r))
    want = alternating_core(C3, seeds, group)
    orbits = tuple(tuple(1 << y for y in phi.map) for phi in group)
    got = close_mask(mask(seeds) or 1 << C3.one, orbits, _caret_rows(C3))
    assert set(_bits(got)) == want
    if seeds:
        members = tuple(x for x in C3.elements()
                        if any(C3.preceq(t, x) for t in want))
        assert localize_closure(C3, seeds, gens).subalgebra.members == members


def test_caret_rows_need_their_transpose():
    # the caret does not commute; without its transpose a round never
    # reads caret(old, new), and most two-element closures come out wrong
    rows, transpose = _caret_rows(C3)
    wrong = 0
    for x in C3.elements():
        for y in C3.elements():
            start = 1 << x | 1 << y
            full = close_mask(start, (), (rows, transpose))
            assert set(_bits(full)) == close_under({x, y}, C3.caret)
            wrong += close_mask(start, (), (rows,)) != full
    assert wrong == 408


# -- the seeded corpus -----------------------------------------------------------

@pytest.mark.parametrize("seed", range(21))
def test_seeded_implication_algebras_match_the_rejecting_sampler(seed):
    base = b3()
    got = seeded_implication_algebras(seed, 6)
    want = rejecting_sampler(seed, 6)
    assert [impl.labels for impl in got] == \
        [tuple(base.label(x) for x in sorted(members)) for members in want]
    assert [impl.name for impl in got] == [f"R{seed}.{k}" for k in range(6)]
