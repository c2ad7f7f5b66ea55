"""Size guards for the search-heavy operations."""

import os
from contextlib import contextmanager

from .errors import CapExceeded

DEFAULT_MAX_CARRIER = 81
MAX_ATOMS = 16

# the cap of the innermost carrier_cap block; None outside every block
_cap = None


def _env_cap(fallback: int) -> int:
    raw = os.environ.get("MRKIT_MAX_CARRIER")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise CapExceeded(f"MRKIT_MAX_CARRIER={raw!r} is not an integer") from None


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


def check_carrier(size: int, guard: str) -> None:
    """Refuse a carrier above the cap, naming the guard and the overrides."""
    cap = max_carrier()
    if size > cap:
        raise CapExceeded(
            f"{guard}: carrier {size} exceeds the cap of {cap} elements "
            "(raise it with --max-carrier or MRKIT_MAX_CARRIER)"
        )
