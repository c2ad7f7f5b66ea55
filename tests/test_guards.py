"""Every size guard names itself, its limit and the two overrides, and runs
on every call, memoised or not."""

import pytest

from mrkit import constructions
from mrkit.cli import main
from mrkit.automorphisms import (
    enumerate_aut,
    find_isomorphism,
    omega,
)
from mrkit.constructions import boolean_algebra, build_I, face_poset
from mrkit.cubic import from_json_dict, localize, to_json_dict
from mrkit.errors import CapExceeded
from mrkit.filters import all_filters
from mrkit.functors import upward_closed_subalgebras

# bases built before a test lowers the cap, so each call reaches its guard
B2, B3 = boolean_algebra(2), boolean_algebra(3)

GUARDED = {
    "face_poset": lambda C2: face_poset(2),
    "boolean_algebra": lambda C2: boolean_algebra(3),
    "build_I": lambda C2: build_I(B2),
    "all_filters": lambda C2: all_filters(C2),
    "enumerate_aut": lambda C2: enumerate_aut(C2),
    "find_isomorphism": lambda C2: find_isomorphism(C2, C2),
    # the two searches take either algebra kind, under one guard each
    "enumerate_aut-B3": lambda C2: enumerate_aut(B3),
    "find_isomorphism-B3": lambda C2: find_isomorphism(B3, B3),
    "localize": lambda C2: localize(C2, C2.one),
    "omega": lambda C2: omega(C2),
    "from_json_dict": lambda C2: from_json_dict(to_json_dict(C2)),
    "upward_closed_subalgebras": lambda C2: upward_closed_subalgebras(C2),
}

# the guarded memos: a repeated call is a memo hit, and its guard still runs
MEMOISED = ("boolean_algebra", "build_I", "enumerate_aut",
            "enumerate_aut-B3", "all_filters", "localize",
            "upward_closed_subalgebras")


def named(case: str) -> str:
    """The guard a case of GUARDED reaches: its name, less the kind."""
    return case.removesuffix("-B3")


@pytest.mark.parametrize("guard", sorted(GUARDED))
def test_cap_messages_name_guard_limit_and_overrides(guard, C2, monkeypatch):
    monkeypatch.setenv("MRKIT_MAX_CARRIER", "5")
    with pytest.raises(CapExceeded) as info:
        GUARDED[guard](C2)
    message = str(info.value)
    for part in (named(guard), "cap of 5", "--max-carrier",
                 "MRKIT_MAX_CARRIER"):
        assert part in message, (part, message)


def test_build_I_refuses_a_large_base_before_walking_its_pairs(monkeypatch):
    # every (1, a) is a pair, so a base above the cap is refused on its
    # own size; the quadratic pair walk grows 4x per atom
    monkeypatch.setenv("MRKIT_MAX_CARRIER", "128")
    b7 = boolean_algebra(7)  # 128 elements
    monkeypatch.setenv("MRKIT_MAX_CARRIER", "81")

    def walk(base):
        raise AssertionError("pair_carrier walked a base above the cap")

    monkeypatch.setattr(constructions, "pair_carrier", walk)
    with pytest.raises(CapExceeded) as info:
        build_I(b7)
    message = str(info.value)
    for part in ("build_I", "cap of 81", "--max-carrier", "MRKIT_MAX_CARRIER"):
        assert part in message, (part, message)


@pytest.mark.parametrize("guard", MEMOISED)
def test_memoised_results_still_pass_the_guard(guard, C2, monkeypatch):
    GUARDED[guard](C2)
    monkeypatch.setenv("MRKIT_MAX_CARRIER", "5")
    with pytest.raises(CapExceeded, match=named(guard)):
        GUARDED[guard](C2)


@pytest.mark.parametrize("flag, env, named", [
    ("-1", None, "--max-carrier -1"),
    ("81", "-1", "MRKIT_MAX_CARRIER='-1'"),
    ("-5", "81", "--max-carrier -5"),
])
def test_a_negative_cap_is_refused_by_name(flag, env, named, capsys,
                                           monkeypatch):
    # a negative cap used to reach every guard, which then refused a
    # carrier of 81 against "the cap of -1 elements"
    if env is None:
        monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
    else:
        monkeypatch.setenv("MRKIT_MAX_CARRIER", env)
    code = main(["build", "--kind", "face", "--n", "1", "--max-carrier", flag])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == f"error: {named} is negative\n"


def test_a_negative_environment_cap_is_refused_in_the_library(monkeypatch):
    monkeypatch.setenv("MRKIT_MAX_CARRIER", "-1")
    with pytest.raises(CapExceeded, match=r"^MRKIT_MAX_CARRIER='-1' is negative$"):
        face_poset(1)
