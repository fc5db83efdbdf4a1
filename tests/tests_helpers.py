"""Small shared helpers for the kernel and verification tests."""

import math

import numpy as np

from fpcavity import DickeParams, Separation, _memo, reflection_matrix, specfun


def starve_verify(monkeypatch, budget: int) -> None:
    """Run every quadrature, verify's checks among them, at a panel-split
    budget of budget, each at its own engine accuracy, for the rest of the
    test.  The memo is emptied too: its keys do not hold the budget, so a
    result computed before would be served at the starved budget."""
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
    _memo._entries.clear()


def free_space_term(sep: Separation, sign: str = "plus") -> np.ndarray:
    """The single direct (no-image) dipole kernel term at a separation."""
    rho = np.array([sep.v * math.cos(sep.phi), sep.v * math.sin(sep.phi),
                    sep.u])
    r2 = float(rho @ rho)
    rhat = rho / math.sqrt(r2)
    term = (np.eye(3) - 3.0 * np.outer(rhat, rhat)) / r2 ** 1.5
    if sign == "minus":
        term = term @ reflection_matrix()
    return term


def parity_diagonal(p: DickeParams) -> np.ndarray:
    """Diagonal of exp[i pi (a'a + S_z + N/2)]: signs (-1)^(m_index + n)."""
    m_idx = np.arange(p.n_atoms + 1)
    n_idx = np.arange(p.fock_cutoff + 1)
    return ((-1.0) ** (m_idx[:, None] + n_idx[None, :])).ravel()
