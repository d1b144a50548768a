import numpy as np
import pytest

from spinhall import (BeamParams, ControlFieldSet, LayerStack, MediumParams,
                      effective_couplings)

LAM = 780e-9


def medium_from(amplitudes, phase1=0.0, eta=0.1):
    fs = ControlFieldSet.from_amplitudes(*amplitudes, p1=phase1)
    return MediumParams(gamma_b=1.0, gamma_e=1.0, eta=eta,
                        couplings=effective_couplings(fs))


def steady_state_coherence(dp, m, probe=1.0):
    """Independent route: solve the linearized steady state of the
    (probe, bright, dark, upper) coherence chain, one system per detuning.

    A level the probe coherence cannot reach (zero coupling on the way)
    is left out, so the system stays regular at resonance, where such a
    level's row would vanish.  Accepts a scalar or an array of detunings.
    """
    c = m.couplings
    al, be, om = c.alpha, c.beta, c.omega_total
    d = np.asarray(dp, dtype=float)[..., None, None]
    zero = np.zeros_like(d)
    A = np.block([
        [-(m.gamma_b / 2 - 1j * d), 1j * al + zero, 1j * be + zero, zero],
        [1j * np.conj(al) + zero, 1j * d, zero, 1j * om + zero],
        [1j * np.conj(be) + zero, zero, 1j * d, zero],
        [zero, 1j * om + zero, zero, -(m.gamma_e / 2 - 1j * d)],
    ])
    keep = [0] + [k for k, on in ((1, al != 0), (2, be != 0), (3, al != 0 and om != 0))
                  if on]
    A = A[..., keep, :][..., keep]
    rhs = np.zeros(len(keep), dtype=complex)
    rhs[0] = -1j * probe
    x = np.linalg.solve(A, np.broadcast_to(rhs, A.shape[:-1])[..., None])
    out = x[..., 0, 0] / probe
    return complex(out) if np.ndim(dp) == 0 else out


def bare_state_coherence(dp, fields, gamma_b, gamma_e, probe=1.0):
    """Independent route without the dark/bright reduction: the weak-probe
    steady state of (rho_ba, rho_ca, rho_da, rho_ea) with the four control
    fields as given.  The probe drives a-b; field 1 couples b-c, field 2
    b-d, field 3 c-e and field 4 d-e, closing the loop b-c-e-d-b."""
    o1, o2 = fields.field1.value, fields.field2.value
    o3, o4 = fields.field3.value, fields.field4.value
    A = np.array([
        [-(gamma_b / 2 - 1j * dp), 1j * np.conj(o1), 1j * np.conj(o2), 0],
        [1j * o1, 1j * dp, 0, 1j * o3],
        [1j * o2, 0, 1j * dp, 1j * o4],
        [0, 1j * np.conj(o3), 1j * np.conj(o4), -(gamma_e / 2 - 1j * dp)],
    ], dtype=complex)
    rhs = np.array([-1j * probe, 0, 0, 0], dtype=complex)
    return np.linalg.solve(A, rhs)[0] / probe


@pytest.fixture
def ctl_medium():
    return medium_from((1.5, 3.0, 2.5, 0.9))


@pytest.fixture
def lambda_medium():
    return medium_from((0.5, 0.5, 0.7, 0.7), phase1=np.pi)


@pytest.fixture
def ntype_medium():
    return medium_from((0.5, 0.5, 0.7, 0.7))


@pytest.fixture
def vacuum_stack():
    return LayerStack(eps2=1.0 + 0j)


@pytest.fixture
def beam():
    return BeamParams(w0=50 * LAM, lam=LAM)
