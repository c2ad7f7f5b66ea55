"""The inner group and the filter automorphisms checked on map tuples.

``inner_group`` composes the permutation tuples and ``filter_automorphism``
reads its permutation off the reflection rows.  The record-level loops
they replace are kept here as references: each new function must give
their results, in their order, and raise their message under each
defect.
"""

import random

import pytest

from mrkit import automorphisms
from mrkit.automorphisms import (
    Group,
    coordinate_gfilters,
    filter_automorphism,
    inner_group,
    is_automorphism,
)
from mrkit.claims import VerifyContext, run_claims
from mrkit.constructions import build_I
from mrkit.corpus import b4, c2, c3, fa1, fa2
from mrkit.errors import DeltaUndefined, InvalidAlgebra
from mrkit.functors import CubicHom

import conftest
from conftest import relabel


def reference_inner_group(algebra):
    """inner_group as the CubicHom.compose/inverse loops, unmemoised."""
    auts = automorphisms.enumerate_aut(algebra)
    generators = [CubicHom(algebra, algebra, p) for p in auts.generators]
    inner = tuple(phi for phi in auts if automorphisms.is_inner(phi))
    maps = {phi.map for phi in inner}
    if tuple(range(algebra.size)) not in maps:
        raise InvalidAlgebra("inner automorphisms miss the identity")
    for phi in inner:
        if not phi.compose(phi).is_identity():
            raise InvalidAlgebra("inner automorphism is not an involution")
        for psi in inner:
            if phi.compose(psi).map not in maps:
                raise InvalidAlgebra("inner automorphisms not closed")
            if phi.compose(psi).map != psi.compose(phi).map:
                raise InvalidAlgebra("inner automorphisms not commutative")
        for psi in generators:
            conj = psi.compose(phi).compose(psi.inverse())
            if conj.map not in maps:
                raise InvalidAlgebra("inner automorphisms not normal")
    return inner


def reference_filter_automorphism(f, g):
    """filter_automorphism as one algebra.delta call per element, with its
    checks on CubicHom records, unmemoised."""
    algebra = automorphisms._require_same(f, g)
    tf, tg = map(automorphisms._coordinates, (f, g))
    perm = tuple(algebra.delta(tg[a][1], tg[b][1])
                 for a, b in map(tf.__getitem__, algebra.elements()))
    phi = CubicHom(algebra, algebra, perm)
    if not is_automorphism(algebra, phi.map):
        raise InvalidAlgebra("filter automorphism formula broke")
    if {phi.map[x] for x in f.members} != set(g.members):
        raise InvalidAlgebra("filter automorphism misses the target filter")
    if not all(algebra.sim(x, phi.map[x]) for x in f.members):
        raise InvalidAlgebra("filter automorphism moves a filter class")
    if not phi.compose(phi).is_identity():
        raise InvalidAlgebra("filter automorphism is not an involution")
    return phi


C4 = build_I(b4())
INSTANCES = {"C2": c2, "C3": c3, "C4": lambda: C4,
             "C4~5": lambda: relabel(C4, 5), "C4~11": lambda: relabel(C4, 11),
             "FA1": fa1, "FA2": fa2}


def fresh(name):
    """A copy of the instance with no memo entries."""
    return conftest.fresh(INSTANCES[name]())


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidAlgebra as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", INSTANCES)
def test_inner_group_matches_the_record_loops(name):
    alg = fresh(name)
    want = [phi.map for phi in reference_inner_group(alg)]
    assert [phi.map for phi in inner_group(alg)] == want
    assert len(want) == {"C2": 4, "C3": 8, "FA1": 2, "FA2": 4}.get(name, 16)


@pytest.mark.parametrize("name", INSTANCES)
def test_filter_automorphisms_match_the_delta_calls(name):
    alg = fresh(name)
    gfs = coordinate_gfilters(alg)
    pairs = [(f, g) for f in gfs for g in gfs]
    assert pairs
    assert [filter_automorphism(f, g).map for f, g in pairs] == \
        [reference_filter_automorphism(f, g).map for f, g in pairs]


def reference_is_inner(phi):
    """is_inner as one CubicAlgebra.sim call per element."""
    algebra = phi.source
    return all(algebra.sim(x, phi.map[x]) for x in algebra.elements())


@pytest.mark.parametrize("name", ["C3", "C4", "C4~5"])
def test_is_inner_matches_the_sim_calls(name):
    # every automorphism, seeded shuffles, and each inner map with the
    # images of two elements traded: bijections that are no automorphism,
    # inner in the sense of the definition when the two share a class
    alg = fresh(name)
    rng, n = random.Random(7), alg.size
    auts = [phi.map for phi in automorphisms.enumerate_aut(alg)]
    shuffles = [tuple(rng.sample(range(n), n)) for _ in range(50)]
    pairs = [(x, y) for x in range(n) for y in range(x)]
    kin = [(x, y) for x, y in pairs if alg.sim(x, y)]
    traded = []
    for p in (p for p in auts if reference_is_inner(CubicHom(alg, alg, p))):
        for x, y in (rng.choice(kin), rng.choice(pairs)):
            q = list(p)
            q[x], q[y] = q[y], q[x]
            traded.append(tuple(q))
    maps = [CubicHom(alg, alg, p) for p in auts + shuffles + traded]
    verdicts = [automorphisms.is_inner(phi) for phi in maps]
    assert verdicts == [reference_is_inner(phi) for phi in maps]
    assert verdicts[:len(auts)].count(True) == (8 if name == "C3" else 16)
    assert verdicts[-len(traded)::2] == [True] * (len(traded) // 2)
    assert False in verdicts[-len(traded) + 1::2]


# -- defects ----------------------------------------------------------------------

N = c2().size
E = tuple(range(N))


def _perm(*images):
    """The permutation moving 0, 1, 2 to ``images``, fixing the rest."""
    return (*images, *E[3:])


# the swaps (01) and (12), and the 3-cycle 0 -> 1 -> 2 -> 0
S, T, C = _perm(1, 0, 2), _perm(0, 2, 1), _perm(1, 2, 0)
S3 = (E, T, S, C, _perm(2, 0, 1), _perm(2, 1, 0))

# (members in group order, generators) -> the message each set must raise
DEFECTS = {
    "miss the identity": ((S,), (S,)),
    "not an involution": ((E, C, _perm(2, 0, 1)), (C,)),
    "not closed": ((E, T, S), (S,)),
    "not commutative": (S3, (S, T)),
    "not normal": ((E, S), (T,)),
}


@pytest.mark.parametrize("message", DEFECTS)
def test_each_inner_group_check_still_fires(message, monkeypatch):
    # every permutation offered is taken as an inner automorphism of C2
    alg = fresh("C2")
    members, generators = DEFECTS[message]
    fake = Group((CubicHom(alg, alg, p) for p in members), (), generators)
    monkeypatch.setattr(automorphisms, "enumerate_aut", lambda a: fake)
    monkeypatch.setattr(automorphisms, "is_inner", lambda phi: True)
    for build in (reference_inner_group, inner_group):
        with pytest.raises(InvalidAlgebra, match=message):
            build(alg)


def _patched_coordinates(monkeypatch, edit):
    """Make _coordinates return its table with ``edit`` applied."""
    real = automorphisms._coordinates

    def coordinates(filt):
        table = dict(real(filt))
        edit(table)
        return table

    monkeypatch.setattr(automorphisms, "_coordinates", coordinates)


@pytest.mark.parametrize("name", ["C2", "C4~5"])
def test_a_broken_formula_is_refused_alike(name, monkeypatch):
    # two points outside the filters trade coordinates, so the map swaps
    # their images and is no longer an automorphism
    alg = fresh(name)
    f, g = coordinate_gfilters(alg)[:2]
    outside = [x for x in alg.elements() if x not in f and x not in g]

    def swap(table):
        x, y = outside[:2]
        table[x], table[y] = table[y], table[x]

    _patched_coordinates(monkeypatch, swap)
    want = outcome(reference_filter_automorphism, f, g)
    assert want == (InvalidAlgebra, "filter automorphism formula broke")
    assert outcome(filter_automorphism, f, g) == want


@pytest.mark.parametrize("name", ["C2", "C4~5"])
def test_an_entry_off_the_reflection_domain_is_refused_alike(name,
                                                             monkeypatch):
    # reversing the coordinates (a, b), b < a, of one point asks for
    # delta(b, a), which is undefined
    alg = fresh(name)
    f = coordinate_gfilters(alg)[0]
    x = next(x for x in alg.elements()
             if len(set(automorphisms.alpha_beta_table(f)[x])) == 2)

    def reverse(table):
        table[x] = table[x][::-1]

    _patched_coordinates(monkeypatch, reverse)
    messages = []
    for build in (reference_filter_automorphism, filter_automorphism):
        with pytest.raises(DeltaUndefined) as err:
            build(f, f)
        messages.append(str(err.value))
    assert messages[0] == messages[1]



def test_one_innerness_check_per_inner_map(monkeypatch):
    # fixed_set is the one memoised innerness gate: once the inner group
    # is built, d_set, decompose and recover ask is_inner only through
    # it, so the split and recovery claims check each inner map once
    alg = fresh("C4")
    inner = inner_group(alg)
    assert len(inner) == 16
    calls, real = [], automorphisms.is_inner
    monkeypatch.setattr(automorphisms, "is_inner",
                        lambda phi: calls.append(phi.map) or real(phi))
    results = run_claims(VerifyContext(algebras=(("C4", alg),)),
                         ["lem:repsMD", "lem:gotIt"])
    assert [r.status for r in results] == ["pass", "pass"]
    assert len(calls) == len(set(calls)) <= len(inner)
    assert set(calls) <= {phi.map for phi in inner}
