"""The last result of the package's costly pure routes, kept for one repeat.

Public calls ask for one input twice in a row: kernel_e, kernel_d and the
reference route of verify for both signs of one separation (E- = E+ . R,
D- = D+ . R share one base), and ground_state after spectrum_scan at the
same parameters (one parity-block solve).  `recall` serves the second call
from the first.

It holds a single entry, shared by every route, as one (key, value) tuple:
the next call with another input replaces it, so a sweep over distinct
inputs computes each of them.  The key is the route itself and every input
exactly, floats by their bits (-0.0 and 0.0 differ), so a result served
from the slot has the bits a fresh computation would give.  The slot is
read and replaced whole, so threads that share it may lose each other's
entry but never pair a key with another key's value.
"""

from __future__ import annotations

import numpy as np

# (key, value) of the last recall that returned
_slot = None


def _exact(x):
    """x as a key part that tells apart any two inputs a route could: a
    float by its bits, a dataclass field by field, anything else by type
    and value."""
    if isinstance(x, float):
        return type(x), float.hex(x)
    if hasattr(x, "__dataclass_fields__"):
        # the fields in order, from the instance dict: dataclasses.fields
        # would cost 5 us a key
        return (type(x),) + tuple(map(_exact, vars(x).values()))
    return type(x), x


def recall(route, *args, **derived):
    """route(*args, **derived), or the value it returned last when the
    last recall was of route at args exactly.

    derived holds values computed from args alone, such as spectrum_scan's
    block layouts, and is not part of the key.  An array value is kept
    read-only and every caller gets its own copy; any other value must be
    immutable.  A call that raises stores nothing.
    """
    global _slot
    key = (route, tuple(map(_exact, args)))
    slot = _slot
    if slot is not None and slot[0] == key:
        value = slot[1]
    else:
        value = route(*args, **derived)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        _slot = key, value
    return value.copy() if isinstance(value, np.ndarray) else value
