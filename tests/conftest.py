import contextlib
import sys
from dataclasses import replace

import numpy as np
import pytest

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|, |e> = (1, 0)
SIGMA_PLUS = SIGMA_MINUS.conj().T
KET_E = np.array([[1, 0], [0, 0]], dtype=complex)
KET_G = np.array([[0, 0], [0, 1]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20230815)


def textbook_gksl(H, Ls, rho):
    """i[rho, H] + sum_L (L rho L† - ½(L†L rho + rho L†L)), written out: the
    GKSL generator on any matrix rho, Hermitian or not."""
    out = 1j * (rho @ H - H @ rho)
    for L in Ls:
        Ld = L.conj().T
        out = out + L @ rho @ Ld - 0.5 * (Ld @ L @ rho + rho @ Ld @ L)
    return out


def batch_adjoint(X):
    """Adjoint of every state of a joint ``(N, D, D)`` or blocks
    ``(N, A, A, d_s, d_s)`` batch, written out independently of the
    library's own adjoint."""
    return X.transpose((0, 2, 1) if X.ndim == 3 else (0, 2, 1, 4, 3)).conj()


def forbid_joint_operators(monkeypatch):
    """Make every joint-space embedding raise, in every module binding it."""
    import nmembed.generators as generators
    import nmembed.linalg as linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("the block route used a joint-space operator")

    originals = {id(f) for f in (linalg.embed, linalg.embed_principal_aux,
                                 generators.assemble_joint_operators)}
    for name, mod in list(sys.modules.items()):
        if name == "nmembed" or name.startswith("nmembed."):
            for key, value in list(vars(mod).items()):
                if id(value) in originals:
                    monkeypatch.setattr(mod, key, forbidden)


@contextlib.contextmanager
def aux_sign_fault():
    """Inject the sign-flip fault into the block route while the context is
    open: every bath's H_a and H_sa are negated in the model the block route
    builds its plans from.  It patches ``nmembed.integrators.block_plan``,
    the name ``step_plans`` calls, so the joint route keeps the true model;
    yields the patched builder."""
    import nmembed.integrators as integrators
    from nmembed.model import TimedOperator

    block_plan = integrators.block_plan

    def negated(op):
        return TimedOperator(tuple((t, -m) for t, m in op.segments))

    def faulty(model, t, measurement="none"):
        baths = tuple(replace(b, H_a=negated(b.H_a), H_sa=negated(b.H_sa))
                      for b in model.baths)
        return block_plan(replace(model, baths=baths), t, measurement)

    integrators.block_plan = faulty
    try:
        yield faulty
    finally:
        integrators.block_plan = block_plan
