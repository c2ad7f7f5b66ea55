"""Each CLI command loads only the package modules it runs; the package
resolves its public names on first access; and the benchmark's tracer,
which wraps functions where the modules hold them, still records its
spans."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrkit
from mrkit.corpus import c3
from mrkit.cubic import to_json_dict

ROOT = Path(__file__).resolve().parent.parent

# the public names of ``mrkit``, pinned: each is its own module's object
EXPORTED = {
    "cubic": """AxiomReport CubicAlgebra ElementRef Localization Subalgebra
        caret caret_total check_cubic_axioms check_mr_axiom delta
        from_json_dict implies join localize meet preceq sim star
        to_json_dict""",
    "constructions": """ImplicationAlgebra PairElement
        boolean_algebra build_I face_poset filter_algebra
        gfilter_from_presentation implication_subalgebra
        presentation_check""",
    "filters": """Filter all_filters as_filter boolean_filter_sum
        boolean_subfilters delta_filter filter_join generated_subalgebra
        impl_elem impl_join impl_sup is_F_boolean is_gfilter
        principal_filter""",
    "functors": """CubicHom ImplicationHom QuotientAlgebra check_hom
        functor_C_hom functor_I_hom inclusion_collapse iota kappa
        quotient_C""",
    "automorphisms": """Xi coordinate_gfilters
        d_set decompose enumerate_aut f_ab f_presentation
        factor_automorphism filter_automorphism find_isomorphism
        fixed_set inner_group is_inner localize_closure omega
        phi_from_boolean_filter recover""",
}
NAMES = sorted(n for names in EXPORTED.values() for n in names.split())

# run a CLI command, then print the mrkit submodules the process loaded
# and which of dataclasses and inspect it loaded
LOADED = """import sys
import mrkit.cli
code = mrkit.cli.main(sys.argv[1:])
print(" ".join(sorted(m[6:] for m in sys.modules if m.startswith("mrkit."))))
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
sys.exit(code)
"""

# run a CLI command, then print the hashlib modules the process loaded
DIGESTS = """import sys
import mrkit.cli
code = mrkit.cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if "hashlib" in m)))
sys.exit(code)
"""


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MRKIT_MAX_CARRIER", None)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def c3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy") / "c3.json"
    path.write_text(json.dumps(to_json_dict(c3())))
    return str(path)


class TestPerCommandImports:
    @pytest.mark.parametrize("argv,absent", [
        # no command but verify loads dataclasses, and so inspect: its one
        # dataclass is claims.Claim
        (("check", "-i", "C3"),
         {"claims", "automorphisms", "constructions", "filters", "functors",
          "corpus", "dataclasses", "inspect"}),
        (("check", "--witness", "all", "--format", "text", "-i", "C3"),
         {"claims", "automorphisms", "constructions", "filters", "functors",
          "corpus", "dataclasses", "inspect"}),
        (("aut", "-i", "C3"), {"claims", "corpus", "dataclasses", "inspect"}),
        (("aut", "--inner", "-i", "C3"),
         {"claims", "corpus", "dataclasses", "inspect"}),
        (("build", "--kind", "interval", "--atoms", "2"),
         {"claims", "automorphisms", "functors", "corpus", "dataclasses",
          "inspect"}),
    ])
    def test_command_loads_only_what_it_runs(self, c3_file, tmp_path, argv,
                                             absent):
        argv = [c3_file if a == "C3" else a for a in argv]
        proc = python("-c", LOADED, *argv, "-o", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert {"cli", "config", "cubic", "errors"} <= loaded
        assert not loaded & absent, loaded & absent

    def test_verify_still_loads_the_claims(self, c3_file, tmp_path):
        proc = python("-c", LOADED, "verify", "--claims", "lem:gen",
                      "-i", c3_file, "-o", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert {"claims", "corpus"} <= set(proc.stdout.split())

    @pytest.mark.parametrize("argv", [
        ("build", "--kind", "interval", "--atoms", "2"),
        ("verify", "--corpus", "--seed", "42"),
        ("check", "-i", "C3"),
        ("aut", "-i", "C3"),
        ("verify", "--claims", "axioms:cubic,lem:kl", "-i", "C3"),
    ], ids=["build", "verify-corpus", "check", "aut", "verify-input"])
    def test_no_command_loads_hashlib(self, c3_file, tmp_path, argv):
        # check, aut and verify -i digest their input with the built-in
        # sha256, so neither hashlib nor OpenSSL's _hashlib is loaded
        argv = [c3_file if a == "C3" else a for a in argv]
        proc = python("-c", DIGESTS, *argv, "-o", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [], proc.stdout

    def test_importing_the_package_loads_no_submodule(self):
        proc = python("-c", "import sys, mrkit; print(sorted(m for m in "
                      "sys.modules if m.startswith('mrkit'))); "
                      "print(mrkit.filters.__name__)")
        assert proc.stdout.split() == ["['mrkit']", "mrkit.filters"], \
            proc.stderr


class TestLazyExports:
    def test_every_old_export_is_its_modules_object(self):
        for module, names in EXPORTED.items():
            mod = importlib.import_module(f"mrkit.{module}")
            for name in names.split():
                assert getattr(mrkit, name) is getattr(mod, name), name

    def test_the_export_list_is_unchanged(self):
        assert mrkit.__all__ == NAMES

    def test_from_import(self):
        from mrkit import build_I
        from mrkit.constructions import build_I as direct

        assert build_I is direct

    def test_star_import(self):
        namespace = {}
        exec("from mrkit import *", namespace)
        assert all(namespace[n] is getattr(mrkit, n) for n in NAMES)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            mrkit.nope
        with pytest.raises(ImportError):
            from mrkit import nope  # noqa: F401

    def test_dir_lists_the_exports(self):
        listed = dir(mrkit)
        assert set(NAMES) <= set(listed) and "__version__" in listed


class TestTracerUnderLazyImports:
    @pytest.mark.parametrize("argv,spans", [
        (("check",), {"cubic.check_cubic_axioms", "cubic.check_mr_axiom"}),
        (("verify", "--claims", "lem:gen"),
         {"claims.run_claims", "claim.lem:gen"}),
    ])
    def test_spans_are_recorded(self, c3_file, tmp_path, argv, spans):
        trace = tmp_path / "trace.json"
        proc = python(str(ROOT / "perfbench" / "tracer.py"), str(trace),
                      *argv, "-i", c3_file, "-o", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        recorded = {span[0] for span in json.loads(trace.read_text())["spans"]}
        assert spans <= recorded, spans - recorded
