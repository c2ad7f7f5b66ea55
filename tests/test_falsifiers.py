"""Falsifiers: each claim below fails under one named defect and passes
without it.

A row is (claim id, instance, defect).  The instance is the one algebra
the claim is run on, a fresh copy so that no memo outlives the defect.  A
defect monkeypatches one wrong entry into an operation the claim reads,
or builds one of its constructions wrongly.  The defect of the negative
claim, ``quotient:not-implies-congruence``, hides the counterexample the
claim exhibits.  Each claim must fail by its own verdict, not by an
error the defect raises.
"""

import pytest

import mrkit.claims
from mrkit import corpus, cubic
from mrkit.claims import VerifyContext, run_claims
from mrkit.constructions import filter_algebra
from mrkit.cubic import CubicAlgebra
from mrkit.filters import Filter

from conftest import fresh


def _wrong_at(monkeypatch, method, pair, value):
    """``CubicAlgebra.<method>`` gives ``value`` at ``pair(algebra)`` and
    is right elsewhere."""
    real = getattr(CubicAlgebra, method)
    monkeypatch.setattr(CubicAlgebra, method, lambda self, x, y: value
                        if (x, y) == pair(self) else real(self, x, y))


def misread_law_c(monkeypatch):
    """Law c compares delta(y, delta(y, x)) with the x <= y in descending
    order.  The cubic verdict is memoised per algebra, so its memo is
    cleared."""
    rows, keys, at = cubic._LAWS["c"]

    def reversed_c(laws, y):
        witnesses, lhs, rhs = rows(laws, y)
        return witnesses, lhs, rhs[::-1]

    monkeypatch.setitem(cubic._LAWS, "c", (reversed_c, keys, at))
    cubic._cubic_report.cache_clear()


def lose_a_meet_with_the_top(monkeypatch):
    """The top and element 0 have no meet."""
    _wrong_at(monkeypatch, "meet", lambda a: (a.one, 0), None)


def drop_an_order_pair(monkeypatch):
    """Element 0 is not below the top."""
    _wrong_at(monkeypatch, "leq", lambda a: (0, a.one), False)


def meet_two_equivalent_elements(monkeypatch):
    """Elements 0 and 1, equivalent in C2 and without a meet there, meet
    at 0."""
    _wrong_at(monkeypatch, "meet", lambda a: (0, 1), 0)


def flip_a_preceq_pair(monkeypatch):
    """Element 0 is not reflection-below the top."""
    _wrong_at(monkeypatch, "preceq", lambda a: (0, a.one), False)


def improper_filter_devices(monkeypatch):
    """FA1 and FA2 are the pair algebras of the improper filters of B2
    and B3, not of the principal filters at atom p."""
    for name, base in (("fa1", corpus.b2), ("fa2", corpus.b3)):
        monkeypatch.setattr(mrkit.claims, name, lambda base=base: (
            filter_algebra(base(), set(base().elements()))))


def equivalence_is_equality(monkeypatch):
    """x ~ y only where x = y, which hides every counterexample."""
    monkeypatch.setattr(CubicAlgebra, "sim", lambda self, x, y: x == y)


# the defects below are kept by every automorphism, so a claim that reads
# one generating filter per orbit still meets them

def no_filter_is_boolean_in_itself(monkeypatch):
    """g is never Boolean relative to f = g."""
    real = mrkit.claims.is_F_boolean
    monkeypatch.setattr(mrkit.claims, "is_F_boolean", lambda g, f:
                        g.mask != f.mask and real(g, f))


def topless_boolean_subfilters(monkeypatch):
    """Every Boolean subfilter loses the top."""
    real = mrkit.claims.boolean_subfilters
    monkeypatch.setattr(mrkit.claims, "boolean_subfilters", lambda f: tuple(
        Filter(g.carrier, g.mask & ~(1 << g.carrier.one)) for g in real(f)))


def topless_fixed_sets(monkeypatch):
    """Every fixed set loses the top."""
    real = mrkit.claims.fixed_set
    monkeypatch.setattr(mrkit.claims, "fixed_set", lambda phi:
                        real(phi) - {phi.source.one})


def topless_generated_sets(monkeypatch):
    """Every generated subalgebra loses the top."""
    real = mrkit.claims.generated_subalgebra
    monkeypatch.setattr(mrkit.claims, "generated_subalgebra", lambda filt:
                        real(filt) - {filt.carrier.one})


# iso:filter-device builds FA1 and FA2 itself and reads no instance
ROWS = [
    ("axioms:cubic", "C2", misread_law_c),
    ("mr:complement-meets", "C2", lose_a_meet_with_the_top),
    ("prop:triv", "C2", drop_an_order_pair),
    ("cor:triv", "C2", meet_two_equivalent_elements),
    ("lem:preceq-char", "C2", flip_a_preceq_pair),
    ("iso:filter-device", "C2", improper_filter_devices),
    ("quotient:not-implies-congruence", "C2", equivalence_is_equality),
    ("thm:lots", "C2", no_filter_is_boolean_in_itself),
    ("thm:Boolean", "C2", no_filter_is_boolean_in_itself),
    ("lem:localPrincBool", "C2", topless_boolean_subfilters),
    ("lem:fixed", "C2", topless_fixed_sets),
    ("lem:DeltaFixed", "C2", topless_generated_sets),
]


@pytest.mark.parametrize("cid,instance,defect", ROWS,
                         ids=[cid for cid, _, _ in ROWS])
def test_the_claim_fails_with_its_defect(monkeypatch, cid, instance, defect):
    algebra = fresh(getattr(corpus, instance.lower())())
    ctx = VerifyContext(algebras=((instance, algebra),))
    assert {r.status for r in run_claims(ctx, [cid])} == {"pass"}
    defect(monkeypatch)
    results = run_claims(ctx, [cid])
    assert {r.status for r in results} == {"fail"}
    assert "error" not in {r.instance for r in results}
