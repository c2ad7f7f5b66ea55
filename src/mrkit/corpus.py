"""Canonical instances and the seeded random corpus.

Fixed repo-wide: B1, B2 (atoms p, q), B3; C1, C2, C3 are their pair
algebras; N5 is the pair algebra of the three-element implication
algebra inside B2; FA1/FA2 are pair algebras of principal Boolean
filters; each is one instance per process.  Random implication algebras
are closures of seeded subsets of B3, fully determined by the seed.
"""

from __future__ import annotations

import random
from functools import cache

from .constructions import (
    ImplicationAlgebra,
    boolean_algebra,
    build_I,
    filter_algebra,
    implication_subalgebra,
)
from .cubic import CubicAlgebra, _bits, close_mask


def b1() -> ImplicationAlgebra:
    return boolean_algebra(1)


def b2() -> ImplicationAlgebra:
    return boolean_algebra(2)


def b3() -> ImplicationAlgebra:
    return boolean_algebra(3)


def b4() -> ImplicationAlgebra:
    return boolean_algebra(4)


@cache
def i3() -> ImplicationAlgebra:
    # atoms and top of B2; p ^ q has no lower bound inside, so not a lattice
    return implication_subalgebra(b2(), {1, 2, 3}, name="I3")


def c1() -> CubicAlgebra:
    return build_I(b1())


def c2() -> CubicAlgebra:
    return build_I(b2())


def c3() -> CubicAlgebra:
    return build_I(b3())


def n5() -> CubicAlgebra:
    return build_I(i3())


@cache
def fa1() -> CubicAlgebra:
    # pair algebra of the principal filter at atom p of B2
    base = b2()
    return filter_algebra(base, {x for x in base.elements() if base.leq(1, x)},
                          name="F[p,1]B2")


@cache
def fa2() -> CubicAlgebra:
    # pair algebra of the principal filter at atom p of B3; this is the
    # finite ultrafilter device: B3 = B2 x 2 and the filter is B2 x {1}
    base = b3()
    return filter_algebra(base, {x for x in base.elements() if base.leq(1, x)},
                          name="F[p,1]B3")


def mr_corpus() -> list[tuple[str, CubicAlgebra]]:
    """The MR-algebras every group/filter claim runs over."""
    return [("C1", c1()), ("C2", c2()), ("C3", c3()),
            ("FA1", fa1()), ("FA2", fa2())]


def cubic_corpus() -> list[tuple[str, CubicAlgebra]]:
    """All cubic instances, including the non-MR witness N5."""
    return mr_corpus() + [("N5", n5())]


NAMED_BASES = {
    "B1": b1, "B2": b2, "B3": b3, "B4": b4, "I3": i3,
}


def seeded_implication_algebras(seed: int, count: int) -> list[ImplicationAlgebra]:
    """Deterministic random implication subalgebras of B3: seeded subsets
    of B3 closed under join and implication."""
    rng = random.Random(seed)
    base = b3()
    implies = base.implies_table
    ops = (base.join_table, implies, tuple(zip(*implies)))
    out = []
    for k in range(count):
        mask = 1 << base.one
        for x in base.elements():
            if rng.random() < 0.4:
                mask |= 1 << x
        out.append(implication_subalgebra(
            base, _bits(close_mask(mask, binary=ops)), name=f"R{seed}.{k}"))
    return out
