"""The last result of each of the package's costly pure routes, kept for
one repeat.

Public calls ask for one input twice in a row: kernel_e, kernel_d and the
reference route of verify for both signs of one separation (E- = E+ . R,
D- = D+ . R share one base), ground_state after spectrum_scan at the
same parameters (one parity-block solve), and the lattice moments of
check_bessel_hyperbolic after xi at the same (u, v) (one lattice sum).
`recall` serves the second call from the first.

It holds one entry per route, a (key, value) tuple: the next call of that
route with another input replaces it, so a sweep over distinct inputs
computes each of them, while a call of another route in between leaves it
alone.  Every value kept is a small tuple of floats: a kernel base is its
four frame entries, the lattice moments are three numbers, and a Dicke
solve keeps only its six observables, whatever the size of its blocks.
The key is every input exactly, floats by their bits (-0.0 and 0.0
differ), so a result served from the memo has the bits a fresh
computation would give.  An entry is read and replaced whole, so threads
that share it may lose each other's entry but never pair a key with
another key's value.
"""

from __future__ import annotations

import math

# route -> (key, value) of the last recall of route that returned
_entries = {}


def _exact(x):
    """x as a key part that tells apart any two inputs a route could: a
    float by its bits, a dataclass field by field (DickeParams, whose y may
    be -0.0, and Tolerance), anything else by type and value."""
    if type(x) is float:
        # floats that compare equal have equal bits but for the zeros, which
        # take their sign; a NaN equals no other float, so it only misses
        return x if x else (float, math.copysign(1.0, x))
    if isinstance(x, float):
        return type(x), float.hex(x)
    if hasattr(x, "__dataclass_fields__"):
        # the fields in order, from the instance dict: dataclasses.fields
        # would cost 5 us a key
        return (type(x),) + tuple(map(_exact, vars(x).values()))
    return type(x), x


def recall(route, *args):
    """route(*args), or the value it returned last when the last recall of
    route was at args exactly.

    The value is shared by every caller, so it must be immutable, as a
    tuple of floats is.  A call that raises stores nothing.
    """
    key = tuple(map(_exact, args))
    entry = _entries.get(route)
    if entry is not None and entry[0] == key:
        return entry[1]
    value = route(*args)
    _entries[route] = key, value
    return value
