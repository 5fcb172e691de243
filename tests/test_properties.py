"""Property-based check of the adjoint generator on random small models.

Every matrix entry is drawn by hypothesis, so a failing example shrinks
towards a smaller model with simpler entries.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lindbladiff.model import HamiltonianSchedule, JumpChannel, LindbladModel, lindblad_rhs
from lindbladiff.sensitivity import adjoint_liouvillian_apply
from lindbladiff.spins import as_sparse

# derandomized and without an example database: every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_ENTRY = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _complex(draw, d):
    re = draw(arrays(np.float64, (d, d), elements=_ENTRY))
    im = draw(arrays(np.float64, (d, d), elements=_ENTRY))
    return re + 1j * im


@st.composite
def cases(draw):
    """(model, t, rho, lam, scale): a random 1-3 qubit model, two operands and a bound on |L|."""
    d = 2 ** draw(st.integers(1, 3))
    wrap = as_sparse if draw(st.booleans()) else (lambda m: m)
    a = _complex(draw, d)
    h = 0.5 * (a + a.conj().T)
    n_channels = draw(st.integers(0, 3))
    # rate 0 exercises the skipped-channel branch; jump operators are non-Hermitian
    rates = [draw(st.sampled_from([0.0, 0.3, 1.0, 2.0])) for _ in range(n_channels)]
    ops = [_complex(draw, d) for _ in range(n_channels)]
    h_op = wrap(h)
    model = LindbladModel(
        hamiltonian=HamiltonianSchedule(evaluate=lambda t, x: h_op, n_params=0),
        channels=tuple(JumpChannel(rate=g, operator=wrap(j)) for g, j in zip(rates, ops)),
        dimension=d,
    )
    scale = 2.0 * np.linalg.norm(h) + 2.0 * sum(g * np.linalg.norm(j) ** 2 for g, j in zip(rates, ops))
    t = draw(st.floats(0.0, 1.0))
    return model, t, _complex(draw, d), _complex(draw, d), scale


@PROPERTY
@given(cases())
def test_adjoint_pairing_identity(case):
    model, t, rho, lam, scale = case
    x = np.zeros(0)
    forward = np.vdot(lam, lindblad_rhs(t, rho, model, x))  # Tr(lam^dag L(rho))
    backward = np.vdot(adjoint_liouvillian_apply(model, x, t, lam), rho)  # Tr((L^dag lam)^dag rho)
    bound = 1e-12 * scale * np.linalg.norm(lam) * np.linalg.norm(rho)
    assert abs(forward - backward) <= bound
