"""Every call gives an all-finite result or a DomainError.

The draws span the whole float range, signs and the edges of each domain;
pyproject.toml turns a RuntimeWarning into an error, so an overflow or an
invalid operation on the way fails the test as a nan in the result would.
This module covers the mode sums and the spectral route of D+, which sums
them at every transverse node.
"""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpcavity import (DomainError, ModeSumArgs, Separation, check_mode_sum,
                      direct_mode_sum, hyperbolic_mode_sum, kernel_d_spectral)

_FLOAT_MAX = sys.float_info.max
_EDGES = [0.0, -0.0, 5e-324, 1e-300, _FLOAT_MAX, -_FLOAT_MAX, 1e154,
          1e-154]

# 10^U(-320, 308), 30 % negative, and the edges of the float range
magnitudes = st.one_of(
    st.sampled_from(_EDGES),
    st.builds(lambda e, sign: math.copysign(10.0 ** e, sign),
              st.floats(-320.0, 308.0),
              st.sampled_from([-1.0] * 3 + [1.0] * 7)))
# log-uniform distances from 1e-2 to 1 next to either mirror: nearer, the
# axial head of every node grows as 256/(pi u) terms, about 0.1 s a call at
# u = 1e-3 and 1 s at 1e-4, refused before any term is summed below 5e-5
near_mirrors = st.builds(lambda e, mirror: abs(mirror - 10.0 ** e),
                         st.floats(-2.0, 0.0), st.sampled_from([0.0, 2.0]))


def _finite(value) -> bool:
    return bool(np.isfinite(np.asarray(value, dtype=complex)).all())


def _mode_sums(alpha, beta, m, n_max):
    try:
        args = ModeSumArgs(alpha, beta, m)
    except DomainError:
        return
    for call in (lambda: hyperbolic_mode_sum(args),
                 lambda: direct_mode_sum(args, n_max)):
        try:
            assert _finite(call()), (args, n_max)
        except DomainError:
            pass
    for report in check_mode_sum([args], n_max):
        error = report.params.get("error", "")
        assert (error.startswith("DomainError") if report.lhs is None
                else _finite([report.lhs, report.rhs])), (args, n_max)


def _spectral(u, v, phi):
    try:
        mat = kernel_d_spectral(Separation(u, v, phi)).m
    except DomainError:
        return
    assert _finite(mat), (u, v, phi)


@settings(max_examples=300, deadline=None)
@given(alpha=magnitudes, beta=magnitudes, m=st.integers(-1, 2),
       n_max=st.integers(1, 10 ** 15), u=st.one_of(near_mirrors, magnitudes),
       v=magnitudes, phi=magnitudes)
@example(alpha=0.5, beta=1.0, m=0, n_max=10 ** 6, u=0.5, v=1e200, phi=0.0)
def test_mode_sums_and_the_spectral_route_are_finite_or_refused(
        alpha, beta, m, n_max, u, v, phi):
    # alpha within 1e-3 of 0 mod 2pi sums a head of up to n_max terms
    # (256/|1 - e^{i alpha}| past 2.6e5), so n_max is cut to 10^5 there
    if abs(math.remainder(alpha, 2.0 * math.pi)) < 1e-3:
        n_max = min(n_max, 10 ** 5)
    _mode_sums(alpha, beta, m, n_max)
    if not 1e-5 < min(abs(u), abs(2.0 - u)) < 1e-2:
        _spectral(u, v, phi)
