"""Every call gives an all-finite result or a DomainError.

The draws span the whole float range, signs and the edges of each domain;
pyproject.toml turns a RuntimeWarning into an error, so an overflow or an
invalid operation on the way fails the test as a nan in the result would.
This module covers the mode sums and the spectral route of D+, which sums
them at every transverse node, and the entry points that take scalars,
the Coulomb kernels, the cancellation checks and the Dicke tools (at small
fixed sizes) among them: there a numpy float64 must give what a Python
float gives, and an int beyond the double range a DomainError, in a scalar
or a vector argument.  Every CLI subcommand, on drawn argvs, exits 0, 1
(verify only) or 2, and prints no nan or inf.
"""

import contextlib
import dataclasses
import io
import math
import re
import sys

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest
from fpcavity import (CavityFrame, DickeParams, DipoleSpec, DomainError,
                      KernelMatrix, ModeSumArgs, Separation, WaveVector,
                      anisotropy_delta, bessel_j, build_hamiltonian,
                      check_axial_and_aniso, check_bessel_hyperbolic,
                      check_green, check_kernel_cancellation,
                      check_lipschitz, check_mode_sum, dipole_dipole_energy,
                      direct_mode_sum, ground_state, hyperbolic_mode_sum,
                      integrate_semi_infinite, kernel_d, kernel_d_spectral,
                      kernel_e, mean_field, mode_fn, quadratic_self_term,
                      self_energy_matrix, spectrum_scan, xi)
from fpcavity.cli import dispatch

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


# each entry point as a function of three scalars, which it passes on as
# they are
_ENTRY_POINTS = {
    "ModeSumArgs": lambda x, y, z: hyperbolic_mode_sum(ModeSumArgs(x, y, 0)),
    "xi": lambda x, y, z: xi(x, y),
    "bessel_j": lambda x, y, z: bessel_j(1, x),
    "integrate_semi_infinite": lambda x, y, z: integrate_semi_infinite(
        lambda t: np.exp(-t), x),
    "check_lipschitz": lambda x, y, z: check_lipschitz(x, y),
    "check_green": lambda x, y, z: [check_green(x, y, z)],
    "check_bessel_hyperbolic": lambda x, y, z: check_bessel_hyperbolic(x, y),
    "kernel_d": lambda x, y, z: kernel_d("plus", Separation(x, y, z)),
    "kernel_d_spectral": lambda x, y, z: kernel_d_spectral(
        Separation(x, y, z)),
    "kernel_e_plus": lambda x, y, z: kernel_e("plus", Separation(x, y, z)),
    "kernel_e_minus": lambda x, y, z: kernel_e("minus",
                                               Separation(x, y, z)),
    "self_energy_matrix": lambda x, y, z: self_energy_matrix(x),
    "quadratic_self_term": lambda x, y, z: quadratic_self_term(x),
    "check_kernel_cancellation.EQ21": lambda x, y, z: (
        check_kernel_cancellation([Separation(x, y, z)], [])),
    "check_kernel_cancellation.SELF_CANCEL": lambda x, y, z: (
        check_kernel_cancellation([], [x])),
    # n_max bounds the direct sum's head, which near alpha = 0 mod 2pi
    # grows as 256/|1 - e^{i alpha}| terms up to n_max
    "check_mode_sum": lambda x, y, z: check_mode_sum([ModeSumArgs(x, y, 1)],
                                                     1000),
    "anisotropy_delta": lambda x, y, z: anisotropy_delta(CavityFrame(x), y),
    "check_axial_and_aniso": lambda x, y, z: check_axial_and_aniso(
        [x], [0.5 * y, y], z),
    "dipole_dipole_energy": lambda x, y, z: dipole_dipole_energy(
        [DipoleSpec((0.0, 0.0, x / 3.0), (0.0, 0.0, 1.0)),
         DipoleSpec((y, 0.0, x / 1.5), (1.0, 0.0, 0.0))],
        CavityFrame(x)),
    # the Dicke tools at (omega_a, omega_c, y)
    "ground_state": lambda x, y, z: ground_state(DickeParams(x, y, z, 1, 4)),
    "spectrum_scan": lambda x, y, z: spectrum_scan(
        DickeParams(x, y, 0.0, 3, 1), [z])[0],
    "mean_field": lambda x, y, z: mean_field(DickeParams(x, y, z)),
    "build_hamiltonian": lambda x, y, z: build_hamiltonian(
        DickeParams(x, y, z, 3, 1)),
}


def _outcome(entry, args) -> list:
    """The numbers an entry point gives at args, each asserted finite, and
    the error type of each failed report row; or ["DomainError"]."""
    try:
        result = _ENTRY_POINTS[entry](*args)
    except DomainError:
        return ["DomainError"]
    if isinstance(result, list):
        out = [x for r in result for x in (
            [r.params["error"].split(":")[0]] if r.lhs is None
            else np.ravel([r.lhs, r.rhs]).tolist())]
    elif isinstance(result, KernelMatrix):
        out = result.m.ravel().tolist()
    elif isinstance(result, np.ndarray):
        out = result.ravel().tolist()
    elif dataclasses.is_dataclass(result):
        # AnisotropyResult and the Dicke results: floats and a bool
        out = [float(x) for x in dataclasses.astuple(result)]
    else:
        out = [complex(result)]
    assert _finite([x for x in out if not isinstance(x, str)]), (entry, args)
    return out


@settings(max_examples=280, deadline=None)
@given(entry=st.sampled_from(sorted(_ENTRY_POINTS)), x=magnitudes,
       y=magnitudes, z=magnitudes)
@example(entry="ModeSumArgs", x=0.5, y=1e200, z=0.0)
@example(entry="check_lipschitz", x=1e200, y=1e200, z=0.0)
@example(entry="check_lipschitz", x=1e-200, y=1e-200, z=0.0)
@example(entry="check_green", x=0.5, y=1.5, z=1e200)
@example(entry="check_green", x=1e-200, y=5e-324, z=1.0)
@example(entry="kernel_d", x=0.5, y=5e-324, z=0.0)
@example(entry="kernel_d", x=1e-200, y=1e308, z=0.0)
@example(entry="kernel_d", x=5e-324, y=3.162277660168379e+306, z=0.0)
@example(entry="kernel_d_spectral", x=0.5, y=5e-324, z=0.0)
@example(entry="check_bessel_hyperbolic", x=0.5, y=5e-324, z=0.0)
@example(entry="anisotropy_delta", x=1e200, y=1e200, z=0.0)
@example(entry="check_axial_and_aniso", x=0.5, y=2e200, z=1e200)
@example(entry="dipole_dipole_energy", x=1.5e308, y=0.5, z=0.0)
@example(entry="ground_state", x=7.336147744545355e+81, y=7.7283351297321e-98,
         z=3.83304643550492e-21)
@example(entry="spectrum_scan", x=1.0, y=1.0, z=1e-25)
# 2 z overflowed with a RuntimeWarning for a numpy float64 z/L
@example(entry="check_kernel_cancellation.SELF_CANCEL",
         x=1.7976931348623157e+308, y=0.0, z=0.0)
def test_numpy_scalars_give_what_python_floats_give(entry, x, y, z):
    if entry == "kernel_d_spectral":
        # near a mirror the axial heads grow as 256/(pi u) terms a node
        assume(not abs(math.remainder(x, 2.0)) < 1e-2)
    assert (_outcome(entry, (np.float64(x), np.float64(y), np.float64(z)))
            == _outcome(entry, (x, y, z)))


@pytest.mark.parametrize("call", [
    lambda: ModeSumArgs(0.5, 10 ** 400, 0),
    lambda: Separation(0.5, 10 ** 400),
    lambda: CavityFrame(10 ** 400),
    lambda: xi(0.5, 10 ** 400),
    lambda: check_lipschitz(1, 10 ** 400),
    lambda: anisotropy_delta(CavityFrame(1.0), 10 ** 400),
    lambda: bessel_j(0, 10 ** 400),
    lambda: DipoleSpec((0, 0, 10 ** 400), (0, 0, 1)),
    lambda: WaveVector(1, (10 ** 400, 0.0)),
    lambda: mode_fn("TE", WaveVector(1, (1.0, 0.0)), (0, 0, 10 ** 400)),
    lambda: DickeParams(10 ** 400, 1.0, 0.0),
    lambda: DickeParams(1.0, 10 ** 400, 0.0),
    lambda: DickeParams(1.0, 1.0, 10 ** 400),
    lambda: spectrum_scan(DickeParams(), [10 ** 400]),
], ids=["ModeSumArgs", "Separation", "CavityFrame", "xi", "check_lipschitz",
        "anisotropy_delta", "bessel_j", "DipoleSpec", "WaveVector",
        "mode_fn", "DickeParams.omega_a", "DickeParams.omega_c",
        "DickeParams.y", "spectrum_scan"])
def test_an_int_beyond_the_doubles_is_refused(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("field", ["omega_a", "omega_c", "y"])
def test_a_numpy_float_dicke_model_is_refused_as_a_python_float_is(field):
    # 1e308 overflows the solver's range check: a numpy float64 would warn
    # there, a Python float overflows silently to the DomainError
    for value in (1e308, np.float64(1e308)):
        params = DickeParams(**{field: value})
        assert type(getattr(params, field)) is float
        with pytest.raises(DomainError):
            ground_state(params)


def test_numpy_integer_dicke_sizes_are_ints():
    # the dimension of 2^62 atoms and photons wrapped in int64 with a
    # RuntimeWarning; as ints it is refused by the solver's guard
    params = DickeParams(n_atoms=np.int64(2 ** 62),
                         fock_cutoff=np.int64(2 ** 62))
    assert type(params.n_atoms) is int and type(params.fock_cutoff) is int
    with pytest.raises(DomainError):
        ground_state(params)


def test_a_string_is_not_a_number():
    with pytest.raises(TypeError):
        Separation("0.5", 1.0)


# ---------------------------------------------------------------------------
# the command line: every subcommand exits 0, 1 (verify) or 2, and raises
# nothing
# ---------------------------------------------------------------------------

# magnitudes and the non-finite values, as argv text
_cli_numbers = st.one_of(magnitudes,
                         st.sampled_from([math.inf, -math.inf, math.nan]))
_formats = st.sampled_from([[], ["--format=json"], ["--format=csv"]])


def _flags(**values) -> list:
    """--name=value for each value that is not None, floats by repr."""
    return [f"--{name.replace('_', '-')}={value!r}"
            for name, value in values.items() if value is not None]


def _optional(strategy):
    return st.one_of(st.none(), strategy)


_xi_argvs = st.builds(
    lambda u, v, fmt: ["xi", *_flags(u=u, v=v), *fmt],
    _cli_numbers, _cli_numbers, _formats)


def _kernel_argv(family, sign, u, v, phi, tol_abs, tol_rel, spectral, fmt):
    # the spectral route sums an axial head of 256/(pi u) terms a node,
    # about 0.1 s a call at u = 1e-3: it is drawn 1e-2 from the mirrors
    near_mirror = math.isfinite(u) and abs(math.remainder(u, 2.0)) < 1e-2
    return ["kernel", f"--family={family}", f"--sign={sign}",
            *_flags(u=u, v=v, phi=phi, tol_abs=tol_abs, tol_rel=tol_rel),
            *(["--spectral"] if spectral and not near_mirror else []), *fmt]


_kernel_argvs = st.builds(
    _kernel_argv, st.sampled_from("ED"), st.sampled_from(["plus", "minus"]),
    _cli_numbers, _cli_numbers, _optional(_cli_numbers),
    _optional(_cli_numbers), _optional(_cli_numbers), st.booleans(),
    _formats)
_verify_argvs = st.builds(
    lambda target, seed, fmt: ["verify", target, f"--seed={seed}", *fmt],
    st.sampled_from(["modesum", "green", "lipschitz", "aniso"]),
    st.integers(-3, 2 ** 70), _formats)
_sizes = dict(n_atoms=_optional(st.integers(-1, 6)),
              cutoff=_optional(st.integers(-1, 8)))
_dicke_argvs = st.one_of(
    st.builds(lambda fmt, **v: ["dicke", "ground", *_flags(**v), *fmt],
              _formats, omega_a=_optional(_cli_numbers),
              omega_c=_optional(_cli_numbers), y=_cli_numbers, **_sizes),
    st.builds(lambda fmt, **v: ["dicke", "meanfield", *_flags(**v), *fmt],
              _formats, omega_a=_optional(_cli_numbers),
              omega_c=_optional(_cli_numbers), y=_cli_numbers),
    # at most 5 couplings: a grid of many steps is many solves
    st.builds(lambda fmt, **v: ["dicke", "scan", *_flags(**v), *fmt],
              _formats, omega_a=_optional(_cli_numbers),
              omega_c=_optional(_cli_numbers),
              y_min=_optional(_cli_numbers), y_max=_optional(_cli_numbers),
              steps=_optional(st.integers(-1, 5)), **_sizes))


@settings(max_examples=500, deadline=None)
@given(argv=st.one_of(_xi_argvs, _kernel_argvs, _verify_argvs,
                      _dicke_argvs))
# np.linspace formed inf * 0 and an overflowing span, with a RuntimeWarning
# each, before the scan refused them
@example(argv=["dicke", "scan", "--y-min=0", "--y-max=inf", "--steps=3",
               "--n-atoms=1", "--cutoff=1"])
@example(argv=["dicke", "scan", "--y-min=-1.7e308", "--y-max=1.7e308",
               "--steps=3", "--n-atoms=1", "--cutoff=1"])
# a span within the float range whose last step rounds beyond it
@example(argv=["dicke", "scan", "--y-max=1.7976931348623157e+308"])
def test_every_subcommand_exits_with_a_status_and_prints_no_nan(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = dispatch(argv)
    assert status in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), (
        argv, err.getvalue())
    if argv[0] != "verify":
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out.getvalue()), (
            argv, out.getvalue())
