"""Child-side driver for a traced request: the mrkit CLI with spans.

Usage: python3 perfbench/tracer.py TRACE_OUT CLI_ARGS...

Imports ``mrkit.cli`` (timed), wraps the public functions in ``TRACED``
and every ``lru_cache``/``cache`` memo of the package wherever a
``mrkit.*`` namespace or class holds them, wraps each registered claim,
runs ``mrkit.cli.main(CLI_ARGS)`` and, when the command ends, writes the
spans and the memo statistics to TRACE_OUT as JSON.  The program's own
output and exit code are unchanged.
"""

from __future__ import annotations

import sys
from time import perf_counter

# module -> public functions that get a span each
TRACED = {
    "cubic": ("check_cubic_axioms", "check_mr_axiom", "replay_witness",
              "localize", "from_json_dict", "to_json_dict", "canonical_json"),
    "constructions": ("build_I", "face_poset"),
    "filters": ("all_filters", "filter_from", "generated_subalgebra"),
    "functors": ("check_hom", "quotient_C"),
    "automorphisms": ("enumerate_aut", "find_isomorphism", "inner_group",
                      "omega", "coordinate_gfilters"),
    "claims": ("run_claims",),
}
# span name -> counter of the items computed (memo hits excluded)
OUTPUT_COUNTERS = {"filters.all_filters": "filters_out",
                   "automorphisms.enumerate_aut": "maps_out"}


class Recorder:
    """Spans (name, start, end, parent index) and memo lookup time."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts = {c: 0 for c in OUTPUT_COUNTERS.values()}
        self.lookup_s = 0.0

    def span(self, name, fn, memo=None):
        spans, stack, counter = self.spans, self.stack, \
            OUTPUT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            misses = memo.cache_info().misses if memo else 0
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            # a memo call that added no miss was served from the cache
            if memo and memo.cache_info().misses == misses:
                self.lookup_s += rec[2] - rec[1]
            elif counter:
                self.counts[counter] += len(result)
            return result
        return traced

    def memo(self, fn):
        def looked_up(*args, **kwargs):
            misses = fn.cache_info().misses
            start = perf_counter()
            result = fn(*args, **kwargs)
            end = perf_counter()
            if fn.cache_info().misses == misses:
                self.lookup_s += end - start
            return result
        return looked_up

    def claim(self, name, run):
        spans, stack = self.spans, self.stack

        def traced(ctx):
            rec = [name, perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                yield from run(ctx)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced


def _holders(package):
    """Every mrkit module namespace and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        yield vars(module), lambda k, v, m=module: setattr(m, k, v)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield vars(value), lambda k, v, c=value: setattr(c, k, v)


def install(rec: Recorder) -> list:
    """Wrap traced functions, memos and claims; return the memos."""
    import dataclasses

    import mrkit.claims

    modules = {name: sys.modules[f"mrkit.{name}"] for name in TRACED}
    wrappers = {}
    for mod, names in TRACED.items():
        for fn_name in names:
            fn = getattr(modules[mod], fn_name)
            memo = fn if hasattr(fn, "cache_info") else None
            wrappers[id(fn)] = rec.span(f"{mod}.{fn_name}", fn, memo)
    memos = {}
    for namespace, _ in _holders("mrkit"):
        for value in namespace.values():
            if hasattr(value, "cache_info") and callable(value):
                memos[id(value)] = value
    for key, fn in memos.items():
        wrapper = wrappers.setdefault(key, rec.memo(fn))
        wrapper.cache_info, wrapper.cache_clear = fn.cache_info, fn.cache_clear
    for namespace, assign in _holders("mrkit"):
        for attr, value in list(namespace.items()):
            if id(value) in wrappers and callable(value):
                assign(attr, wrappers[id(value)])
    registry = mrkit.claims.CLAIMS
    for cid, spec in list(registry.items()):
        registry[cid] = dataclasses.replace(
            spec, run=rec.claim(f"claim.{cid}", spec.run))
    return list(memos.values())


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    import mrkit.cli
    import_s = perf_counter() - start
    rec = Recorder()
    memos = install(rec)
    try:
        return mrkit.cli.main(cli_args)
    finally:
        import json

        infos = [m.cache_info() for m in memos]
        with open(out_path, "w") as fh:
            json.dump({
                "import_s": import_s,
                "spans": rec.spans,
                "counts": rec.counts,
                "cache": {"memos": len(memos),
                          "hits": sum(i.hits for i in infos),
                          "misses": sum(i.misses for i in infos),
                          "entries": sum(i.currsize for i in infos),
                          "lookup_s": rec.lookup_s},
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
