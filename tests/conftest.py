import sys

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
