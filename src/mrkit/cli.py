"""Command-line surface: build, check, aut, verify.

Reports are canonical JSON (sorted keys, fixed separators), so identical
(input, seed, version) triples produce byte-identical output.  Exit codes:
0 all requested checks pass, 1 an axiom or claim fails, 2 usage or schema
errors.

The module imports only what every command needs; each ``cmd_*`` imports
the rest of the package itself, so ``check`` loads no claim, filter or
automorphism code.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, config
from .cubic import (
    canonical_chunks,
    caret_total,
    check_cubic_axioms,
    check_mr_axiom,
    from_json_dict,
    is_mr,
    to_json_dict,
)
from .errors import CapExceeded, MalformedTable, MrkitError

USAGE_ERROR = 2
CLAIM_FAILURE = 1


def _check_output(path: str):
    """Refuse an output path that is a directory or lies in a missing
    one, before any work.  Opening the file here would truncate it, so
    :func:`_write` reports what this cannot see."""
    if os.path.isdir(path):
        raise SystemExit2(f"cannot write {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise SystemExit2(f"cannot write {path}: no directory {parent}")


def _write(args, chunks):
    # the report is written piece by piece and never held whole
    if not args.output:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise SystemExit2(f"cannot write {args.output}: {exc}") from exc


def _load(path: str, *, strict: bool):
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # too deep to parse
        raise MalformedTable(f"cannot read {path}: {exc}") from exc
    return from_json_dict(data, strict=strict)


def _input_digest(algebra) -> str:
    # the interpreter's own sha256 (_sha2 on 3.12+), as hashlib falls back
    # to without OpenSSL: hashlib loads libcrypto, about 3.7 MB of RSS
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    digest = sha256()
    for chunk in canonical_chunks(to_json_dict(algebra)):
        digest.update(chunk.encode())
    return digest.hexdigest()[:16]


def _named_base(name: str):
    from .corpus import NAMED_BASES

    if name not in NAMED_BASES:
        raise SystemExit2(f"unknown base {name!r}; "
                          f"choices: {sorted(NAMED_BASES)}")
    return NAMED_BASES[name]()


# the options each --kind reads: it needs each of them and takes no other
BUILD_OPTIONS = {"interval": ("atoms",), "face": ("n",), "pairs": ("base",),
                 "filter": ("base", "min")}


def cmd_build(args) -> int:
    from .constructions import (boolean_algebra, build_I, face_poset,
                                filter_algebra)
    from .filters import principal_filter

    kind, reads = args.kind, BUILD_OPTIONS[args.kind]
    options = dict.fromkeys(o for opts in BUILD_OPTIONS.values() for o in opts)
    if {o for o in options if getattr(args, o) is not None} != set(reads):
        needs = " ".join(f"--{o}" for o in reads)
        others = " ".join(f"--{o}" for o in options if o not in reads)
        raise SystemExit2(f"--kind {kind} needs {needs} and reads none of {others}")
    if kind == "interval":
        algebra = build_I(boolean_algebra(args.atoms))
    elif kind == "face":
        if args.n < 0:
            raise SystemExit2("--kind face needs --n >= 0")
        algebra = face_poset(args.n)
    elif kind == "pairs":
        algebra = build_I(_named_base(args.base))
    else:
        base = _named_base(args.base)
        try:
            bottom = [x for x in base.elements() if base.label(x) == args.min][0]
        except IndexError:
            raise SystemExit2(f"no element labelled {args.min!r} in {args.base}")
        algebra = filter_algebra(
            base, principal_filter(base, bottom).members)
    _write(args, canonical_chunks(to_json_dict(algebra)))
    return 0


def cmd_check(args) -> int:
    algebra = _load(args.input, strict=False)
    cubic = check_cubic_axioms(algebra, args.witness)
    mr = check_mr_axiom(algebra, args.witness)
    total = caret_total(algebra)
    report = {
        "version": __version__,
        "input": _input_digest(algebra),
        "carrier": algebra.size,
        "cubic": {"passed": cubic.passed, "violations": list(cubic.violations)},
        "mr": {"passed": mr.passed, "violations": list(mr.violations)},
        "caret_total": total,
        "consistent": total == mr.passed,
    }
    if args.format == "json":
        _write(args, canonical_chunks(report))
    else:
        lines = [
            f"carrier {algebra.size}, top {algebra.one}",
            f"cubic axioms: {'pass' if cubic.passed else 'FAIL'}",
        ]
        for axiom_id, witness in cubic.violations:
            lines.append(f"  violated {axiom_id} at {witness}")
        lines.append(f"meet-existence axiom: {'pass' if mr.passed else 'FAIL'}")
        for axiom_id, witness in mr.violations:
            lines.append(f"  violated {axiom_id} at {witness}")
        lines.append(f"caret total: {total} (consistent: {total == mr.passed})")
        _write(args, (line + "\n" for line in lines))
    return 0 if cubic.passed else CLAIM_FAILURE


def cmd_aut(args) -> int:
    from .automorphisms import enumerate_aut, inner_group, omega

    algebra = _load(args.input, strict=True)
    auts = enumerate_aut(algebra)
    inner = inner_group(algebra)
    report = {
        "version": __version__,
        "input": _input_digest(algebra),
        "order": len(auts),
        "inner_order": len(inner),
    }
    if not args.inner:
        report["automorphisms"] = [list(phi.map) for phi in auts]
    report["inner"] = [list(phi.map) for phi in inner]
    if is_mr(algebra):
        report["omega"] = [
            {"inner": list(phi.map),
             "filter_classes": sorted(filt.members),
             "filter_labels": list(filt.labels())}
            for phi, filt in omega(algebra)
        ]
    if args.format == "json":
        _write(args, canonical_chunks(report))
    else:
        lines = [f"automorphism group order {len(auts)}",
                 f"inner subgroup order {len(inner)}"]
        for phi in (inner if args.inner else auts):
            lines.append("  " + " ".join(map(str, phi.map)))
        if "omega" in report:
            lines.append("inner automorphism <-> Boolean filter of the collapse:")
            for row in report["omega"]:
                lines.append(f"  {row['inner']} <-> {row['filter_labels']}")
        _write(args, (line + "\n" for line in lines))
    return 0


def cmd_verify(args) -> int:
    from .claims import CLAIMS, VerifyContext, run_claims
    from .corpus import cubic_corpus

    claim_ids = None
    if args.claims is not None:
        claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not claim_ids:
            raise SystemExit2(f"--claims {args.claims!r} names no claim id")
        unknown = [c for c in claim_ids if c not in CLAIMS]
        if unknown:
            raise SystemExit2(f"unknown claim ids: {unknown}; "
                              f"known: {sorted(CLAIMS)}")
    if args.corpus:
        algebras = tuple(cubic_corpus())
        source = "corpus"
    elif args.input:
        # one file runs the "each" claims; a global claim needs the corpus
        if args.seed is not None:
            raise SystemExit2("--seed is read only by global claims, which "
                              "run only with --corpus")
        if claim_ids is None:
            claim_ids = [c for c, spec in CLAIMS.items() if spec.scope == "each"]
        scoped = [c for c in claim_ids if CLAIMS[c].scope == "global"]
        if scoped:
            raise SystemExit2(f"global claims {scoped} run only with --corpus")
        algebra = _load(args.input, strict=False)
        name = os.path.splitext(os.path.basename(args.input))[0]
        algebras = ((name, algebra),)
        source = _input_digest(algebra)
    else:
        raise SystemExit2("verify needs --corpus or --input")
    seed = VerifyContext.seed if args.seed is None else args.seed
    ctx = VerifyContext(algebras, seed, args.witness)
    results = run_claims(ctx, claim_ids)
    failures = [r for r in results if r.status == "fail"]
    report = {
        "version": __version__,
        "seed": ctx.seed,
        "input": source,
        "results": [r.as_dict() for r in results],
        "passed": not failures,
    }
    if args.format == "json":
        _write(args, canonical_chunks(report))
    else:
        lines = []
        for r in results:
            line = f"{r.status.upper():4} {r.claim_id} [{r.instance}]"
            if r.status == "fail" and r.witness is not None:
                line += f" witness={r.witness}"
            lines.append(line)
        lines.append(f"{'all claims pass' if not failures else 'FAILURES: ' + str(len(failures))}")
        _write(args, (line + "\n" for line in lines))
    return CLAIM_FAILURE if failures else 0


class SystemExit2(Exception):
    """Usage-level error, reported on stderr with exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrkit",
        description="finite cubic implication algebras: build, check, verify",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options its cmd_* (or main) reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="output path (default stdout)")
    common.add_argument("--max-carrier", type=int,
                        default=config.DEFAULT_MAX_CARRIER,
                        help="search cap (MRKIT_MAX_CARRIER overrides)")
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=("json", "text"), default="json")
    witnessed = argparse.ArgumentParser(add_help=False, parents=[formatted])
    witnessed.add_argument("--witness", choices=("first", "all"),
                           default="first")

    p_build = sub.add_parser("build", parents=[common],
                             help="construct an algebra and write it as JSON")
    p_build.add_argument("--kind", required=True,
                         choices=("interval", "face", "filter", "pairs"))
    p_build.add_argument("--atoms", type=int, help="atom count (interval)")
    p_build.add_argument("--n", type=int, help="cube dimension (face)")
    p_build.add_argument("--base", help="named base algebra (pairs/filter)")
    p_build.add_argument("--min", help="label of the filter minimum (filter)")
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check", parents=[witnessed],
                             help="run the axiom checkers on an algebra file")
    p_check.add_argument("-i", "--input", required=True)
    p_check.set_defaults(func=cmd_check)

    p_aut = sub.add_parser("aut", parents=[formatted],
                           help="enumerate the automorphism group")
    p_aut.add_argument("-i", "--input", required=True)
    p_aut.add_argument("--inner", action="store_true",
                       help="list only the inner subgroup")
    p_aut.set_defaults(func=cmd_aut)

    p_verify = sub.add_parser("verify", parents=[witnessed],
                              help="run the claim suite")
    source = p_verify.add_mutually_exclusive_group()
    source.add_argument("-i", "--input")
    source.add_argument("--corpus", action="store_true",
                        help="verify the built-in corpus")
    p_verify.add_argument("--claims", help="comma-separated claim ids")
    p_verify.add_argument("--seed", type=int,
                          help="seed of the corpus (--corpus only)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        if args.max_carrier < 0:
            raise SystemExit2(f"--max-carrier {args.max_carrier} is negative")
        with config.carrier_cap(args.max_carrier):
            return args.func(args)
    except MalformedTable as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SystemExit2, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MrkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CLAIM_FAILURE


if __name__ == "__main__":
    sys.exit(main())
