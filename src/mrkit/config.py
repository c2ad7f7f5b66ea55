"""Size guards for the search-heavy operations and the per-algebra memo."""

import functools
import os
import weakref
from collections import namedtuple
from contextlib import contextmanager

from .errors import CapExceeded

DEFAULT_MAX_CARRIER = 81

# the cap of the innermost carrier_cap block; None outside every block
_cap = None


def _env_cap(fallback: int) -> int:
    raw = os.environ.get("MRKIT_MAX_CARRIER")
    if raw is None:
        return fallback
    try:
        cap = int(raw)
    except ValueError:
        raise CapExceeded(f"MRKIT_MAX_CARRIER={raw!r} is not an integer") from None
    if cap < 0:
        raise CapExceeded(f"MRKIT_MAX_CARRIER={raw!r} is negative")
    return cap


def max_carrier() -> int:
    """Carrier cap for exhaustive searches: the cap of the enclosing
    :func:`carrier_cap` block, else MRKIT_MAX_CARRIER, else the default."""
    return _env_cap(DEFAULT_MAX_CARRIER) if _cap is None else _cap


@contextmanager
def carrier_cap(fallback: int):
    """Fix the cap for the block to MRKIT_MAX_CARRIER when set, else to
    ``fallback``; the environment is never written."""
    global _cap
    previous, _cap = _cap, _env_cap(fallback)
    try:
        yield
    finally:
        _cap = previous


def _refuse(guard: str, carrier, cap: int):
    raise CapExceeded(
        f"{guard}: carrier {carrier} exceeds the cap of {cap} elements "
        "(raise it with --max-carrier or MRKIT_MAX_CARRIER)"
    )


def check_carrier(size: int, guard: str) -> None:
    """Refuse a carrier above the cap, naming the guard and the overrides."""
    if size > (cap := max_carrier()):
        _refuse(guard, size, cap)


def check_power(base: int, exponent: int, guard: str) -> int:
    """:func:`check_carrier` for a carrier of ``base ** exponent`` elements
    (base at least 2, exponent not negative), named by that power and
    returned when accepted.  An exponent past the cap's bit length is
    refused before the power is computed: ``2 ** exponent`` exceeds it."""
    cap = max_carrier()
    if exponent > cap.bit_length() or (size := base ** exponent) > cap:
        _refuse(guard, f"{base}^{exponent}", cap)
    return size


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_MISS = object()  # a memo entry may hold None


def memo(guard: str | None = None, size=None):
    """Memoise ``fn(obj, ...)`` in the ``__dict__`` of ``obj``, or of its
    ``carrier`` for a filter or a map (whose carrier is its source), so
    entries die with that algebra and no key hashes a table.  ``guard``
    checks the cap on every call against ``size(obj)`` (default
    ``obj.size``).  Stats are as on ``lru_cache``."""
    def decorate(fn):
        slot = f"_memo.{fn.__module__}.{fn.__qualname__}"
        owners = weakref.WeakValueDictionary()  # id -> owner with entries
        live = {}  # id -> entries on that owner, dropped when it dies
        stats = [0, 0]  # hits, misses

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if guard:
                check_carrier(size(obj) if size else obj.size, guard)
            owner = getattr(obj, "carrier", obj)
            entries = owner.__dict__.get(slot)
            if entries is None:
                entries = owner.__dict__[slot] = {}
                owners[id(owner)] = owner
                weakref.finalize(owner, live.pop, id(owner), None)
            key = (None if owner is obj else obj, args, tuple(kwargs.items()))
            value = entries.get(key, _MISS)
            stats[value is _MISS] += 1
            if value is _MISS:
                value = entries[key] = fn(obj, *args, **kwargs)
                live[id(owner)] = len(entries)
            return value

        def cache_clear():
            for owner in owners.values():
                del owner.__dict__[slot]
            owners.clear()
            live.clear()
            stats[:] = 0, 0

        wrapper.cache_clear = cache_clear
        wrapper.cache_info = lambda: CacheInfo(*stats, None, sum(live.values()))
        return wrapper
    return decorate
