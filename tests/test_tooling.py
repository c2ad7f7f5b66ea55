"""The benchmark's tracer names functions of the package by string; a
rename there would silently drop a span, so each name must resolve.  The
benchmark's claims-c4 request has its work counts pinned here, the
unchecked constructor its callers, and the claim registry its one loop
over the instances."""

import ast
import dataclasses
import importlib
from pathlib import Path

from mrkit import automorphisms, cubic
from mrkit.claims import CLAIMS, VerifyContext, run_claims
from mrkit.constructions import build_I
from mrkit.corpus import b4
from mrkit.cubic import CubicAlgebra, localize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


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
    # and one presentation add 4 more verifications.  The cubic axioms are
    # checked once, by the claim gate: the pair algebras of the collapse
    # and of the filters are cubic by theorem, and no algebra the request
    # builds (subalgebras, pair algebras) is re-validated.
    verified, axioms, validated = [], [], []
    check = automorphisms._verify_map
    monkeypatch.setattr(automorphisms, "_verify_map",
                        lambda *args: verified.append(args) or check(*args))
    check_axioms = cubic.check_cubic_axioms
    monkeypatch.setattr(cubic, "check_cubic_axioms", lambda *args:
                        axioms.append(args) or check_axioms(*args))
    validate = CubicAlgebra.__post_init__
    monkeypatch.setattr(CubicAlgebra, "__post_init__", lambda self:
                        validated.append(self) or validate(self))
    automorphisms.filter_automorphism.cache_clear()
    automorphisms.is_automorphism.cache_clear()
    c4 = dataclasses.replace(build_I(b4()))  # a copy with no memo entries
    claims = assigned("run.py", "CLAIMS_C4")
    axioms.clear()
    validated.clear()
    results = run_claims(VerifyContext(algebras=(("C4", c4),)), claims)
    assert len(results) == 12 and {r.status for r in results} == {"pass"}
    assert len(verified) == 20
    assert len(axioms) == 1 and len(validated) == 0
    info = automorphisms.filter_automorphism.cache_info()
    assert (info.hits, info.misses, info.currsize) == (256, 256, 256)

    def leq(*args):
        raise AssertionError("localize called CubicAlgebra.leq")

    monkeypatch.setattr(CubicAlgebra, "leq", leq)
    c4 = dataclasses.replace(c4)
    pairs = sum(len(localize(c4, a).members) for a in c4.elements())
    assert pairs == 7 ** 4  # the chains a <= q <= p over the 81 points


class References(ast.NodeVisitor):
    """The scopes (module.Class.function) that name ``_trusted``."""

    def __init__(self, module: str):
        self.scope, self.found = [module], []

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

    def visit_Name(self, node):
        if node.id == "_trusted":
            self.found.append(".".join(self.scope))

    def visit_Attribute(self, node):
        if node.attr == "_trusted":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_the_trusted_constructor_has_two_callers():
    # cubic._trusted skips validation: it stays behind the subalgebra
    # inducer and the pair build, whose tables are well formed by
    # construction.  Any other use of the name, an alias included, fails.
    found = []
    for path in sorted((ROOT / "src" / "mrkit").glob("*.py")):
        refs = References(path.stem)
        refs.visit(ast.parse(path.read_text()))
        found += refs.found
    assert sorted(found) == ["constructions._pair_algebra",
                             "cubic.Subalgebra.__init__"]


def claim_scope(node: ast.FunctionDef):
    """The scope a ``@claim(...)`` decorator gives the body, else None."""
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call) and getattr(deco.func, "id", "") == "claim":
            scope = [k.value for k in deco.keywords if k.arg == "scope"]
            scope += deco.args[2:3]
            return ast.literal_eval(scope[0]) if scope else "each"
    return None


def loops_over_algebras(node) -> int:
    """How many for-loops and comprehensions in ``node`` iterate over an
    ``.algebras`` attribute."""
    return sum(isinstance(n, (ast.For, ast.comprehension))
               and isinstance(n.iter, ast.Attribute)
               and n.iter.attr == "algebras" for n in ast.walk(node))


def test_the_claim_registry_owns_the_instance_loop():
    # an "each" body judges one algebra: it neither reads ctx.algebras nor
    # hands ctx to a helper that could, so the run that claim registers
    # is the one loop over the instances of every "each" claim
    tree = ast.parse((ROOT / "src" / "mrkit" / "claims.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    each = [n for n in functions.values() if claim_scope(n) == "each"]
    registered = sum(len([d for d in n.decorator_list
                          if isinstance(d, ast.Call)]) for n in each)
    assert registered == sum(c.scope == "each" for c in CLAIMS.values()) == 40
    for node in each:
        ctx = node.args.args[0].arg
        assert not [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                    and n.attr == "algebras"], node.name
        assert not [n for n in ast.walk(node) if isinstance(n, ast.Call)
                    and any(getattr(a, "id", None) == ctx for a in n.args)
                    ], node.name
    assert loops_over_algebras(functions["claim"]) == 1
