"""The memo of the last kernel base, Dicke solve and Dicke layout, one
entry per route.

A repeat of a route's last input, in the other sign or through the other
Dicke call, is served from the memo, also after calls of other routes in
between; any other input is computed afresh.  What the memo serves has the
bits of a fresh computation, belongs to the caller, and is never an error.
"""

import math

import numpy as np
import pytest

from fpcavity import (ConvergenceError, DickeParams, DomainError, Separation,
                      Tolerance, coulomb, dicke, ground_state, kernel_d,
                      kernel_e, radiation, spectrum_scan)
from fpcavity import _memo
from fpcavity.radiation import _kernel_d_reference

ROUTES = (kernel_e, kernel_d, _kernel_d_reference)
# signed zeros in every input the key holds or the rotation reads
SEPARATIONS = (Separation(0.4, 0.9, 1.1), Separation(0.5, 0.0),
               Separation(0.5, -0.0), Separation(0.5, 0.7, -0.0),
               Separation(1.3, -0.0, -0.0))


def _fresh(call):
    """call() with the memo emptied first."""
    _memo._entries.clear()
    return call()


def _counted(monkeypatch, module, name):
    """The argument tuples of every call of module.name from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("order", [("plus", "minus"), ("minus", "plus")])
def test_both_signs_match_a_fresh_computation(route, order):
    seps = SEPARATIONS + ((Separation(-0.0, 0.7, 0.3),
                           Separation(0.0, 0.7, 0.3))
                          if route is kernel_e else ())
    for sep in seps:
        for sign in order:
            got = route(sign, sep)
            want = _fresh(lambda: route(sign, sep))
            assert got.kind == want.kind
            assert got.m.tobytes() == want.m.tobytes(), (sign, sep)


@pytest.mark.parametrize("route, module, layer, first, second", [
    (kernel_e, coulomb, "_lattice_moments", Separation(0.0, 0.7, 0.3),
     Separation(-0.0, 0.7, 0.3)),
    (kernel_d, radiation, "integrate_semi_infinite", Separation(0.5, 0.0),
     Separation(0.5, -0.0)),
    (_kernel_d_reference, radiation, "integrate_semi_infinite",
     Separation(0.5, -0.0), Separation(0.5, 0.0)),
])
def test_signed_zeros_are_different_inputs(monkeypatch, route, module, layer,
                                           first, second):
    calls = _counted(monkeypatch, module, layer)
    route("plus", first)
    route("minus", second)
    assert len(calls) == 2


def test_dicke_signed_zero_coupling_is_a_different_input(monkeypatch):
    solves = _counted(monkeypatch, dicke, "_lowest_pair")
    zero, negative_zero = DickeParams(y=0.0), DickeParams(y=-0.0)
    assert spectrum_scan(zero, [0.0])[0].y == 0.0
    got = ground_state(negative_zero)
    # one solve of each parity block per call
    assert len(solves) == 4
    assert repr(got) == repr(_fresh(lambda: ground_state(negative_zero)))
    row = spectrum_scan(zero, [-0.0])[0]
    assert math.copysign(1.0, row.y) == -1.0
    assert repr(row) == repr(_fresh(lambda: spectrum_scan(zero, [-0.0])[0]))


@pytest.mark.parametrize("route", ROUTES)
def test_a_mutated_result_leaves_the_next_one_alone(route):
    # at phi = 0 the plus kernel is the base itself, not a rotated product
    sep = Separation(0.6, 1.1)
    want = {sign: _fresh(lambda: route(sign, sep)).m for sign in
            ("plus", "minus")}
    _memo._entries.clear()
    first = route("plus", sep)
    first.m[...] = 7.0
    for sign in ("minus", "plus"):
        assert np.array_equal(route(sign, sep).m, want[sign]), sign


def test_tolerances_differing_in_the_last_bit_do_not_share_an_entry(
        monkeypatch):
    calls = _counted(monkeypatch, radiation, "integrate_semi_infinite")
    sep = Separation(0.3, 3.0)
    tol = Tolerance(abs_tol=1e-10)
    kernel_d("plus", sep, tol)
    kernel_d("minus", sep, Tolerance(abs_tol=1e-10))
    assert len(calls) == 1
    kernel_d("minus", sep, Tolerance(abs_tol=math.nextafter(1e-10, 1.0)))
    assert len(calls) == 2
    assert calls[0][2] is tol and calls[1][2].abs_tol > 1e-10


def test_tolerances_differing_in_budget_do_not_share_an_entry():
    sep = Separation(0.3, 3.0)
    kernel_d("plus", sep, Tolerance())
    with pytest.raises(ConvergenceError):
        kernel_d("minus", sep, Tolerance(max_subdivisions=1))


@pytest.mark.parametrize("call, error", [
    (lambda: kernel_d("plus", Separation(0.3, 3.0),
                      Tolerance(max_subdivisions=1)), ConvergenceError),
    (lambda: _kernel_d_reference("minus", Separation(0.5, 1.0),
                                 Tolerance(max_subdivisions=2)),
     ConvergenceError),
    (lambda: ground_state(DickeParams(n_atoms=199, fock_cutoff=200)),
     DomainError),
])
def test_an_error_is_not_remembered(call, error):
    with pytest.raises(error) as first:
        call()
    with pytest.raises(error) as again:
        call()
    assert str(again.value) == str(first.value)


@pytest.mark.parametrize("route, module, layer", [
    (kernel_e, coulomb, "_lattice_moments"),
    (kernel_d, radiation, "integrate_semi_infinite"),
    (_kernel_d_reference, radiation, "integrate_semi_infinite"),
])
def test_one_computation_per_input(monkeypatch, route, module, layer):
    calls = _counted(monkeypatch, module, layer)
    route("plus", Separation(0.7, 0.4))
    route("minus", Separation(0.7, 0.4))
    assert len(calls) == 1
    calls.clear()
    # one entry per route: a second pass over distinct inputs computes them
    # again
    seps = [Separation(0.8, 0.4, 1.0), Separation(1.2, 0.9),
            Separation(0.3, 1.5)]
    for _ in range(2):
        for sep in seps:
            route("plus", sep)
    assert len(calls) == 6


def test_ground_state_after_scan_reuses_the_solve(monkeypatch):
    solves = _counted(monkeypatch, dicke, "_lowest_pair")
    p = DickeParams(y=1.4, n_atoms=6, fock_cutoff=40)
    row = spectrum_scan(p, [p.y])[0]
    assert len(solves) == 2
    g = ground_state(p)
    assert len(solves) == 2
    assert (g.energy, g.photon_number, g.parity) == (
        row.energy, row.photon_number, row.parity)
    assert repr(g) == repr(_fresh(lambda: ground_state(p)))
    solves.clear()
    ground_state(DickeParams(y=1.5, n_atoms=6, fock_cutoff=40))
    assert len(solves) == 2


def test_another_route_in_between_keeps_the_entry(monkeypatch):
    sums = _counted(monkeypatch, coulomb, "_lattice_moments")
    sep = Separation(0.7, 0.4)
    kernel_e("plus", sep)
    kernel_d("plus", Separation(0.6, 1.1))
    kernel_e("minus", sep)
    assert len(sums) == 1


def test_a_kernel_between_scan_and_ground_state_keeps_the_solve(monkeypatch):
    solves = _counted(monkeypatch, dicke, "_lowest_pair")
    p = DickeParams(y=1.4, n_atoms=6, fock_cutoff=40)
    row = spectrum_scan(p, [p.y])[0]
    kernel_d("plus", Separation(0.6, 1.1))
    kernel_e("minus", Separation(0.6, 1.1))
    g = ground_state(p)
    assert len(solves) == 2
    assert (g.energy, g.photon_number, g.parity) == (
        row.energy, row.photon_number, row.parity)
