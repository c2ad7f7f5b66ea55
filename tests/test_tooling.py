"""The benchmark's tracer names functions of the package by string; a
rename there would silently drop a span, so each name must resolve.  The
benchmark's claims-c4 request has its work counts pinned here, the
unchecked constructor its callers, the claim registry its one loop over
the instances, the claims their one orbit scan, the map record its one
set of map operations, the table core its two algebra records, each
command the options it reads, each defaulted parameter a caller that
sets it and every module but ``claims`` its freedom from dataclasses."""

import argparse
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mrkit
from mrkit import automorphisms, claims, cli, cubic, filters
from mrkit.claims import CLAIMS, VerifyContext, run_claims
from mrkit.constructions import ImplicationAlgebra, boolean_algebra, build_I
from mrkit.corpus import b4, c2
from mrkit.cubic import CubicAlgebra, _TableCore, localize
from mrkit.errors import CapExceeded
from mrkit.functors import CubicHom

from conftest import fresh
from test_lazy_imports import NAMES

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
    # fresh memos: the 16 coordinate generating filters form one orbit, so
    # the six filter-pair claims read the first of them only, and its 16
    # filter automorphisms verify their 16 distinct maps once each (all
    # 256 pairs before the pair claims were reduced by symmetry, with
    # 3,100 closures and 641 complements below); xi:group-iso's
    # automorphism search on the collapse and one presentation add 4 more
    # verifications, and the stabiliser chain of C4 its 4 generators, the
    # one group search, which every reduced claim shares for its orbits.
    # lem:kl localizes the first of each
    # of the 5 point orbits, and lem:gen closes the first of each of the
    # 15 filter orbits.  The cubic axioms are checked once, by the claim
    # gate: the pair algebras of the collapse and of the filters are cubic
    # by theorem, and no algebra the request builds (subalgebras, pair
    # algebras) is re-validated.  Of the filter closures and elementwise
    # complements the request asks for, 179 and 162 are distinct (the
    # filter enumeration closes its candidates past the closure memo).
    verified, axioms, validated, closed = [], [], [], []
    check = automorphisms._verify_map
    monkeypatch.setattr(automorphisms, "_verify_map",
                        lambda *args: verified.append(args) or check(*args))
    check_axioms = cubic.check_cubic_axioms
    monkeypatch.setattr(cubic, "check_cubic_axioms", lambda *args:
                        axioms.append(args) or check_axioms(*args))
    validate = CubicAlgebra.__post_init__
    monkeypatch.setattr(CubicAlgebra, "__post_init__", lambda self:
                        validated.append(self) or validate(self))
    closure = claims.subalgebra_closure
    monkeypatch.setattr(claims, "subalgebra_closure", lambda *args:
                        closed.append(args) or closure(*args))
    automorphisms.filter_automorphism.cache_clear()
    automorphisms.is_automorphism.cache_clear()
    cubic.localize.cache_clear()
    c4 = fresh(build_I(b4()))  # a copy with no memo entries
    claim_ids = assigned("run.py", "CLAIMS_C4")
    axioms.clear()
    validated.clear()
    memos = filters._closure_mask, filters.impl_elem
    misses = [fn.cache_info().misses for fn in memos]
    results = run_claims(VerifyContext(algebras=(("C4", c4),)), claim_ids)
    assert len(results) == 12 and {r.status for r in results} == {"pass"}
    assert len(verified) == 24
    assert len(axioms) == 1 and len(validated) == 0
    assert cubic.localize.cache_info().misses == 5 and len(closed) == 15
    info = automorphisms.filter_automorphism.cache_info()
    assert (info.hits, info.misses, info.currsize) == (16, 16, 16)
    assert [fn.cache_info().misses - n
            for fn, n in zip(memos, misses)] == [179, 162]

    def leq(*args):
        raise AssertionError("localize called CubicAlgebra.leq")

    monkeypatch.setattr(CubicAlgebra, "leq", leq)
    c4 = fresh(c4)
    pairs = sum(len(localize(c4, a).members) for a in c4.elements())
    assert pairs == 7 ** 4  # the chains a <= q <= p over the 81 points


def test_omega_work_counts(monkeypatch):
    # on canonical C4 with fresh memos: inner_group composes map tuples
    # and builds at most one map record per generator; omega sums all
    # 16 x 16 ordered pairs of Boolean filters of the collapse, whose 16
    # complements are computed once each
    c4 = fresh(build_I(b4()))
    generators = automorphisms.enumerate_aut(c4).generators
    built, sums = [], []
    post_init = CubicHom.__post_init__
    monkeypatch.setattr(CubicHom, "__post_init__", lambda self:
                        built.append(self) or post_init(self))
    assert len(automorphisms.inner_group(c4)) == 16
    assert len(built) <= len(generators)
    add = automorphisms.boolean_filter_sum
    monkeypatch.setattr(automorphisms, "boolean_filter_sum", lambda *args:
                        sums.append(args) or add(*args))
    misses = filters.impl_elem.cache_info().misses
    assert len(automorphisms.omega(c4)) == 16
    assert filters.impl_elem.cache_info().misses - misses == 16
    assert len(sums) == 256


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


def definitions(node, scope: str):
    """(scope, name) of every class and function defined in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield scope, child.name
            yield from definitions(child, f"{scope}.{child.name}")
        else:
            yield from definitions(child, scope)


def test_one_record_owns_the_map_operations():
    # a hom and an automorphism are one map record, so compose, inverse
    # and identity are written once, with no second record or converter;
    # the 69 public names are pinned in test_lazy_imports
    defs = [d for path in sorted((ROOT / "src" / "mrkit").glob("*.py"))
            for d in definitions(ast.parse(path.read_text()), path.stem)]
    assert sorted(d for d in defs if d[1] in {
        "compose", "inverse", "identity"}) == [
        ("functors._IndexMap", "compose"), ("functors._IndexMap", "identity"),
        ("functors._IndexMap", "inverse")]
    assert not [d for d in defs
                if d[1] in {"Automorphism", "as_hom", "inverse_hom"}]
    assert len(NAMES) == 69


# public names no module of the package imports or calls, and why each stays
UNREAD = {
    **dict.fromkeys(
        ("join", "meet", "delta", "implies", "caret", "star", "preceq", "sim"),
        "a spec-level operation on int or ElementRef arguments"),
}


def read_names(tree: ast.Module, modules: set[str]) -> set[str]:
    """The names a module imports from the package or reads: a bare name
    that no enclosing function binds, or an attribute of a package module
    (``config.memo``); no method, no local variable."""
    found = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | {n.arg for n in ast.walk(node.args)
                             if isinstance(n, ast.arg)} | {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        elif isinstance(node, ast.ImportFrom) and node.level:
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return found


def test_every_public_name_is_read_or_allowed():
    # a public name the program never reads is reference-only code: it
    # goes, or it is allowed here with its reason
    paths = sorted((ROOT / "src" / "mrkit").glob("*.py"))
    modules = {path.stem for path in paths}
    read = set().union(*(read_names(ast.parse(path.read_text()), modules)
                         for path in paths if path.stem != "__init__"))
    assert sorted(set(mrkit.__all__) - read) == sorted(UNREAD)


RECORDS = {"Filter", "CubicHom", "ImplicationHom"}


def test_each_record_names_its_algebra_once():
    # a filter carries its algebra and a map its source, so no public
    # function that takes one takes the algebra again; the exemption is
    # phi_from_boolean_filter, whose filter lives in the collapse.  The
    # records hold no algebra field beside the filter, map or
    # localization that carries it
    both = []
    for module in (automorphisms, filters):
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            params = inspect.signature(fn).parameters.values()
            if (any(p.name in {"algebra", "ambient"} for p in params)
                    and any(p.annotation in RECORDS
                            or p.name in {"filt", "phi"} for p in params)):
                both.append(name)
    assert both == ["phi_from_boolean_filter"]
    for record in (automorphisms.FPresentation,
                   automorphisms.IntervalTranslation):
        assert "algebra" not in record._fields
    assert not hasattr(automorphisms, "GFilterPair")


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
    # is the one loop over the instances of every "each" claim.  Every
    # body returns verdicts: a global one takes ctx alone, and only the
    # registry's run and the gate skips of run_claims build a ClaimResult
    tree = ast.parse((ROOT / "src" / "mrkit" / "claims.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    each = [n for n in functions.values() if claim_scope(n) == "each"]
    registered = sum(len([d for d in n.decorator_list
                          if isinstance(d, ast.Call)]) for n in each)
    assert registered == sum(c.scope == "each" for c in CLAIMS.values()) == 40
    scoped = [n for n in functions.values() if claim_scope(n) == "global"]
    assert len(scoped) == sum(c.scope == "global"
                              for c in CLAIMS.values()) == 14
    assert {len(n.args.args) for n in scoped} == {1}
    assert not [n for n in scoped if n.args.kwonlyargs or n.args.vararg]
    builders = {name for name, node in functions.items()
                if [n for n in ast.walk(node) if isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) == "ClaimResult"]}
    assert builders == {"claim", "run_claims"}
    for node in each:
        ctx = node.args.args[0].arg
        assert not [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                    and n.attr == "algebras"], node.name
        assert not [n for n in ast.walk(node) if isinstance(n, ast.Call)
                    and any(getattr(a, "id", None) == ctx for a in n.args)
                    ], node.name
    assert loops_over_algebras(functions["claim"]) == 1


def claim_ids(node: ast.FunctionDef) -> list[str]:
    """The ids the ``@claim(...)`` decorators register the body as."""
    return [ast.literal_eval(d.args[0]) for d in node.decorator_list
            if isinstance(d, ast.Call) and getattr(d.func, "id", "") == "claim"]


def called(node, name: str) -> list[ast.Call]:
    """The calls of ``name`` in ``node``."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == name]


def test_one_orbit_scan_behind_the_claims():
    # every claim reduced by symmetry goes through claims._orbit_scan: it
    # alone names orbit_representatives, once, to call it, so no claim
    # grows a scan of its own with its own proof of witness order
    tree = ast.parse((ROOT / "src" / "mrkit" / "claims.py").read_text())
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)
             and n.id == "orbit_representatives"]
    [scan] = [n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "_orbit_scan"]
    calls = [n.func for n in ast.walk(scan) if isinstance(n, ast.Call)]
    assert len(names) == 1 and names[0] in calls
    # a claim that quantifies over the coordinate generating filters hands
    # its outer quantifier to the scan; two read the first filter only
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    scanned, first_only = set(), set()
    for node in filter(claim_ids, functions):
        firsts = {id(n.value) for n in ast.walk(node)
                  if isinstance(n, ast.Subscript) and ast.unparse(n.slice) == "0"}
        reads = called(node, "coordinate_gfilters") + called(node, "_gfilters")
        if reads and all(id(c) in firsts for c in reads):
            first_only.update(claim_ids(node))
        elif reads:
            assert [c for c in called(node, "_orbit_scan")
                    if ast.unparse(c.args[1]) == "_gfilters(alg)"], node.name
            scanned.update(claim_ids(node))
    assert first_only == {"thm:factoring", "xi:group-iso"}
    assert scanned == {"thm:lots", "thm:Boolean", "lem:localBoolean",
                       "lem:localPrincBool", "lem:fixed", "lem:DeltaFixed",
                       "lem:phiE"}
    # a raised package error becomes a fault in claims._errors alone; the
    # three bodies that need the construction's value keep their own try,
    # and run_claims turns an uncaught one into an error result
    catching = [(claim_ids(node) or [node.name])[0] for node in functions
                for n in ast.walk(node) if isinstance(n, ast.ExceptHandler)
                and "MrkitError" in ast.unparse(n.type)]
    assert sorted(catching) == ["_errors", "run_claims", "thm:factoring",
                                "thm:present", "thm:recoveryII"]


def table_defaults(tree) -> list[int]:
    """The lines of ``getattr(obj, <a name holding "_table">, default)``."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "getattr" and len(n.args) == 3
            and "_table" in ast.unparse(n.args[1])]


def test_every_operation_is_read_from_its_table():
    # every algebra is a table core, so no module probes for a table with
    # a default to fall back on, and _rows_at only reads rows: it neither
    # branches nor calls the operation
    for path in sorted((ROOT / "src" / "mrkit").glob("*.py")):
        assert table_defaults(ast.parse(path.read_text())) == [], path.name
    tree = ast.parse((ROOT / "src" / "mrkit" / "cubic.py").read_text())
    rows_at = next(n for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and n.name == "_rows_at")
    assert not [n for n in ast.walk(rows_at)
                if isinstance(n, (ast.If, ast.IfExp, ast.Try, ast.BoolOp))]
    called = {ast.unparse(n.func) for n in ast.walk(rows_at)
              if isinstance(n, ast.Call)}
    assert called == {"getattr", "_getter", "get"}, called
    probe = ast.parse('getattr(a, f"{op}_table", None)\n'
                      'getattr(a, "delta_table", None)')
    assert table_defaults(probe) == [1, 2]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_one_implication_algebra_record(monkeypatch):
    # a Boolean algebra is an ImplicationAlgebra, validated like any other,
    # so the table core has two records: one cubic, one implication
    for info in pkgutil.iter_modules(mrkit.__path__):
        importlib.import_module(f"mrkit.{info.name}")
    assert sorted(c.__qualname__ for c in subclasses(_TableCore)
                  if c.__module__.startswith("mrkit.")) == [
        "CubicAlgebra", "ImplicationAlgebra"]
    assert type(boolean_algebra(2)) is ImplicationAlgebra
    # the carrier guard runs before a table is built or validated
    monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
    built = []
    monkeypatch.setattr(ImplicationAlgebra, "__post_init__",
                        lambda self: built.append(self.size))
    with pytest.raises(CapExceeded, match="boolean_algebra"):
        boolean_algebra(10)
    assert built == []


def test_the_check_modules_import_no_dataclasses():
    # dataclasses would load inspect, ast, dis and tokenize at start: only
    # claims imports it, for Claim alone, whose run the benchmark's tracer
    # rebinds with dataclasses.replace; every other record is a _Record
    importers, decorated = set(), []
    for path in sorted((ROOT / "src" / "mrkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for n in ast.walk(tree)
                    if isinstance(n, ast.Import) for alias in n.names}
        imported |= {n.module for n in ast.walk(tree)
                     if isinstance(n, ast.ImportFrom) and n.module}
        if "dataclasses" in {m.split(".")[0] for m in imported}:
            importers.add(path.stem)
        decorated += [n.name for n in ast.walk(tree)
                      if isinstance(n, ast.ClassDef) and any(
                          "dataclass" in ast.unparse(d)
                          for d in n.decorator_list)]
    assert importers == {"claims"}
    assert decorated == ["Claim"]


# the attributes through which a map is read against an algebra's tables
TABLES = {"tables", "join_table", "delta_table", "implies_table"}


def function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((ROOT / "src" / "mrkit" / f"{module}.py").read_text())
    return next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == name)


def test_one_map_comparison():
    # the isomorphism verifier and the hom checks read a map against the
    # tables only through functors._pulled: each makes one _pulled call,
    # reaches no table outside it and has no row reader of its own (no
    # _at, _row_faults or nested function), and outside it reads only the
    # order from the store; the hom checks hand their table pairs to
    # _hom_faults, and _Struct holds no rows of its own
    for module, name in (("automorphisms", "_verify_map"),
                         ("functors", "_hom_faults"),
                         ("functors", "check_hom")):
        node = function(module, name)
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        called = {ast.unparse(n.func) for n in calls}
        assert not called & {"_at", "_row_faults"}, name
        assert not [n for n in ast.walk(node) if n is not node and isinstance(
            n, (ast.FunctionDef, ast.Lambda))], name
        if name.startswith("check"):
            assert "_hom_faults" in called, name
            continue
        pulled = [n for n in calls if ast.unparse(n.func) == "_pulled"]
        assert len(pulled) == 1, name
        inside = {id(n) for n in ast.walk(pulled[0])}
        assert not [n.attr for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and n.attr in TABLES
                    and id(n) not in inside], name
        assert [ast.unparse(n.args[-2]) for n in calls
                if ast.unparse(n.func) in {"_pair", "rows"}
                and id(n) not in inside] == (
                    ["'leq'"] if name == "_verify_map" else []), name
    struct = automorphisms._Struct(c2())  # no search has built its sigs
    assert set(vars(struct)) == {"algebra", "n", "up", "down", "consts",
                                 "tables"}
    assert not [name for name in ("rows", "codec", "coded", "order_rows",
                                  "order_t", "reads")
                if hasattr(struct, name)]
    undefined = inspect.signature(cubic._row_faults).parameters["undefined"]
    assert undefined.default is inspect.Parameter.empty


def test_only_the_store_encodes_table_rows():
    # a codec encodes table rows, or transposes encoded ones, in
    # cubic.rows alone, so no layer keeps its own encoded copy beside the
    # algebra's store
    def encodings(tree):
        return {id(n) for n in ast.walk(tree) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in {"rows", "transpose"}}

    found = {}
    for path in sorted((ROOT / "src" / "mrkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        found[path.stem] = calls = encodings(tree)
        if path.stem == "cubic":
            store = next(n for n in tree.body if isinstance(
                n, ast.FunctionDef) and n.name == "rows")
            assert calls and calls == encodings(store)
            calls.clear()
    assert not any(found.values()), found


def test_one_map_layer_for_both_algebra_kinds():
    # the automorphism search, the isomorphism search and check and the
    # hom check each take either algebra kind: no per-kind twin is defined
    defined = {n.name for path in (ROOT / "src" / "mrkit").glob("*.py")
               for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.FunctionDef)}
    twins = {"enumerate_impl_aut", "find_impl_isomorphism", "check_impl_hom",
             "_impl_struct", "_cubic_struct"}
    assert not defined & twins
    assert {"enumerate_aut", "find_isomorphism", "is_isomorphism",
            "check_hom", "_struct"} <= defined


def test_each_command_takes_only_the_options_it_reads():
    # an option no cmd_* reads was accepted and silently dropped (build
    # --format, build and aut --witness); main reads -o and --max-carrier
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == ["aut", "build", "check", "verify"]
    for command, sub in commands.choices.items():
        dests = {a.dest for a in sub._actions
                 if not isinstance(a, argparse._HelpAction)}
        node = function("cli", sub.get_default("func").__name__)
        read = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and getattr(n.value, "id", None) == "args"}
        assert dests == read | {"output", "max_carrier"}, command


def defaulted(node: ast.FunctionDef):
    """(position or None, name) of each parameter with a default; a
    keyword-only one has no position."""
    positional = node.args.posonlyargs + node.args.args
    for i, arg in enumerate(positional):
        if i >= len(positional) - len(node.args.defaults):
            yield i, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def sets(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` may pass the parameter: by keyword, by position,
    or through a ``*`` or ``**`` unpacking."""
    return (any(k.arg in {name, None} for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def test_every_default_is_overridden_somewhere():
    # a defaulted parameter no caller sets is an option nothing uses
    # (boolean_algebra's name was one); calls are matched by name
    calls = {}
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                calls.setdefault(name, []).append(n)
    unset = []
    for path in sorted((ROOT / "src" / "mrkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name[0] == "_":
                continue
            unset += [f"{path.stem}.{node.name}({name})"
                      for position, name in defaulted(node)
                      if not any(sets(call, position, name)
                                 for call in calls.get(node.name, ()))]
    assert unset == []
