"""The one closure enumerator against the subset scans it replaced."""

import ast
from pathlib import Path

import pytest

import mrkit
from mrkit.constructions import build_I, face_poset
from mrkit.corpus import b4, cubic_corpus
from mrkit.filters import all_filters, closed_sets
from mrkit.functors import upward_closed_subalgebras

SMALL = [(name, alg) for name, alg in cubic_corpus() if alg.size <= 16]
SMALL.append(("face2", face_poset(2)))


def brute_upward_closed_subalgebras(algebra):
    """The mask of every nonempty upward-closed join/reflection-closed
    subset, found by scanning all 2^n masks in ascending order."""
    n = algebra.size
    up = algebra._up
    results = []
    for mask in range(1, 1 << n):
        if any(mask >> x & 1 and up[x] & ~mask for x in range(n)):
            continue
        members = [x for x in range(n) if mask >> x & 1]
        closed = all(
            mask >> algebra.join(x, y) & 1
            and (not algebra.leq(y, x) or mask >> algebra.delta(x, y) & 1)
            for x in members for y in members)
        if closed:
            results.append(mask)
    return tuple(results)


def brute_filters(algebra):
    """Every subset holding the top that is upward closed and closed under
    the meets that exist, in lectic order: of two sets, the later one holds
    the smallest element they differ on."""
    n = algebra.size
    found = []
    for mask in range(1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        if not mask >> algebra.one & 1:
            continue
        if any(algebra.leq(x, y) and not mask >> y & 1
               for x in members for y in range(n)):
            continue
        meets = [algebra.meet(x, y) for x in members for y in members]
        if all(m is None or mask >> m & 1 for m in meets):
            found.append(frozenset(members))
    return sorted(found, key=lambda s: tuple(x in s for x in range(n)))


def test_closed_sets_come_in_lectic_order():
    # every mask is closed under the identity; bit 0 is the most significant
    assert closed_sets(3, lambda closed, bit, stop: closed | bit) == \
        [0, 4, 2, 6, 1, 5, 3, 7]


@pytest.mark.parametrize("name,algebra", SMALL, ids=[n for n, _ in SMALL])
def test_upward_closed_subalgebras_match_the_scan(name, algebra):
    assert upward_closed_subalgebras(algebra) == \
        brute_upward_closed_subalgebras(algebra)


@pytest.mark.parametrize("name,algebra", SMALL, ids=[n for n, _ in SMALL])
def test_all_filters_match_the_scan(name, algebra):
    assert [f.members for f in all_filters(algebra)] == brute_filters(algebra)


def test_counts_above_the_old_fixed_cap(C3):
    assert len(upward_closed_subalgebras(C3)) == 19
    assert len(upward_closed_subalgebras(build_I(b4()))) == 167


def _range_calls_with_shift(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range"
                and any(isinstance(sub, ast.BinOp)
                        and isinstance(sub.op, ast.LShift)
                        for arg in node.args for sub in ast.walk(arg))):
            yield node.lineno


def test_no_subset_scan_beside_the_enumerator():
    # a loop over range(... 1 << n ...) is a 2^n subset scan; closed_sets
    # is the one way the package enumerates subsets
    package = Path(mrkit.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _range_calls_with_shift(ast.parse(path.read_text()))]
    assert found == []
