"""The benchmark's tracer names functions of the package by string; a
rename there would silently drop a span, so each name must resolve.  The
benchmark's claims-c4 request has its work counts pinned here."""

import ast
import dataclasses
import importlib
from pathlib import Path

from mrkit import automorphisms
from mrkit.claims import VerifyContext, run_claims
from mrkit.constructions import build_I
from mrkit.corpus import b4
from mrkit.cubic import CubicAlgebra, localize

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assigned(script: str, name: str):
    """The literal value a perfbench script assigns to ``name``."""
    for node in ast.parse((BENCH / script).read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{script} defines no {name}")


def test_every_traced_name_resolves():
    traced = assigned("tracer.py", "TRACED")
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"mrkit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"mrkit.{module}.{name}"


def test_claims_c4_work_counts(monkeypatch):
    # exact work counts of the claims-c4 request on canonical C4 with
    # fresh memos: the 256 filter automorphisms verify their 16 distinct
    # maps once each; xi:group-iso's automorphism search on the collapse
    # and one presentation add 4 more verifications
    verified = []
    check = automorphisms._verify_map
    monkeypatch.setattr(automorphisms, "_verify_map",
                        lambda *args: verified.append(args) or check(*args))
    automorphisms.filter_automorphism.cache_clear()
    automorphisms.is_automorphism.cache_clear()
    c4 = dataclasses.replace(build_I(b4()))  # a copy with no memo entries
    claims = assigned("run.py", "CLAIMS_C4")
    results = run_claims(VerifyContext(algebras=(("C4", c4),)), claims)
    assert len(results) == 12 and {r.status for r in results} == {"pass"}
    assert len(verified) == 20
    info = automorphisms.filter_automorphism.cache_info()
    assert (info.hits, info.misses, info.currsize) == (256, 256, 256)

    def leq(*args):
        raise AssertionError("localize called CubicAlgebra.leq")

    monkeypatch.setattr(CubicAlgebra, "leq", leq)
    c4 = dataclasses.replace(c4)
    pairs = sum(len(localize(c4, a).members) for a in c4.elements())
    assert pairs == 7 ** 4  # the chains a <= q <= p over the 81 points
