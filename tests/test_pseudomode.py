"""The damped Jaynes-Cummings pseudomode against its closed form: the
analytic non-Markovian oracle.

A qubit (basis e, g) exchanges an excitation with a mode a, truncated to n
levels, that decays at rate lam; the probe sqrt(kappa) sigma- damps the
qubit and H_s = delta |e><e| detunes it.  From a single excitation the
dynamics stays in span{|e,0>, |g,1>, |g,0>}, so any n >= 2 is exact
(Garraway, PRA 55, 2290 (1997)): with c(t) = [exp(-i H_eff t)]_00 and
H_eff = [[delta - i kappa/2, g], [g, -i lam/2]], the principal's state is
rho_ee(t) = |c|^2 rho_ee(0) and rho_eg(t) = c rho_eg(0).  For g > lam/4, |c|
has zeros and revives: the trace distance between the evolutions of |e>
and |g> grows again, the non-Markovianity witness of Breuer, Laine and
Piilo, PRL 103, 210401 (2009).
"""

from pathlib import Path

import numpy as np
import pytest

from nmembed.cli import parse_config
from nmembed.generators import BlockState
from nmembed.integrators import SimConfig, draw_innovations, em_run, solve_qme, step_plans
from nmembed.linalg import partial_trace
from nmembed.model import direct_embedding
from nmembed.verify import joint_from_blocks

from conftest import KET_E, KET_G, SIGMA_MINUS

FIXTURE = Path(__file__).parents[1] / "fixtures" / "pseudomode.json"
PLUS = np.full((2, 2), 0.5, dtype=complex)
G, LAM = 1.0, 0.5  # strong coupling: |c| has zeros
T_END = 4.0


def lowering(n):
    return np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)


def pseudomode(n, g=G, lam=LAM, kappa=0.0, delta=0.0):
    a = lowering(n)
    return direct_embedding(delta * KET_E, np.zeros((n, n)),
                            g * (np.kron(SIGMA_MINUS.T, a) + np.kron(SIGMA_MINUS, a.T)),
                            np.sqrt(lam) * a,
                            probe=np.sqrt(kappa) * SIGMA_MINUS if kappa else None)


def amplitude(t, g=G, lam=LAM, kappa=0.0, delta=0.0):
    """c(t) = [exp(M)]_00 with M = -i H_eff t, by the 2x2 formula
    exp(M) = e^m (cosh s I + sinh(s)/s (M - m I)), m = tr M / 2,
    s^2 = (M_00 - m)^2 + M_01 M_10."""
    h = np.array([[delta - 0.5j * kappa, g], [g, -0.5j * lam]])
    M = -1j * h * np.asarray(t, dtype=float)[..., None, None]
    m = (M[..., 0, 0] + M[..., 1, 1]) / 2
    s = np.sqrt((M[..., 0, 0] - m) ** 2 + M[..., 0, 1] * M[..., 1, 0])
    safe = np.where(s == 0, 1, s)
    sinhc = np.where(s == 0, 1, np.sinh(safe) / safe)
    return np.exp(m) * (np.cosh(s) + sinhc * (M[..., 0, 0] - m))


def closed_form(t, rho0, **params):
    """The principal's states at times t from rho0 with the mode in its
    vacuum."""
    c = amplitude(t, **params)
    out = np.empty((len(c), 2, 2), dtype=complex)
    out[:, 0, 0] = abs(c) ** 2 * rho0[0, 0]
    out[:, 0, 1] = c * rho0[0, 1]
    out[:, 1, 0] = out[:, 0, 1].conj()
    out[:, 1, 1] = 1 - out[:, 0, 0]
    return out


def start(n, rho_s=PLUS):
    vacuum = np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = 1
    return BlockState.from_product(pseudomode(n).dims, rho_s, [vacuum])


def qme_error(n, dt, **params):
    """Largest Frobenius distance of ``solve_qme``'s principal states from
    the closed form over (0, T_END]."""
    cfg = SimConfig(dt=dt, t_end=T_END, scheme="rk4", measurement="none")
    series = solve_qme(pseudomode(n, **params), start(n), cfg)
    t = np.array([s[0] for s in series])
    red = np.array([s[2] for s in series])
    return np.max(np.linalg.norm(red - closed_form(t, PLUS, **params), axis=(1, 2)))


@pytest.mark.parametrize("kappa, delta", [(0.0, 0.0), (0.3, 0.7)],
                         ids=["bare", "probe-detuned"])
@pytest.mark.parametrize("n, coordinates", [(2, True), (9, False)],
                         ids=["coordinates-D4", "direct-D18"])
def test_master_equation_is_fourth_order_against_the_closed_form(n, coordinates, kappa,
                                                                  delta):
    model = pseudomode(n, kappa=kappa, delta=delta)
    assert step_plans(model, 0.01, 400, "blocks")[1] is coordinates
    coarse, fine = (qme_error(n, dt, kappa=kappa, delta=delta) for dt in (0.01, 0.005))
    assert coarse < 2e-9
    assert 14 <= coarse / fine <= 18


@pytest.mark.parametrize("kappa, delta", [(0.0, 0.0), (0.3, 0.7)],
                         ids=["bare", "probe-detuned"])
def test_unmonitored_joint_euler_route_is_first_order(kappa, delta):
    model = pseudomode(2, kappa=kappa, delta=delta)
    X = joint_from_blocks(start(2)).rho[None]
    errors = []
    for dt in (0.01, 0.005):
        cfg = SimConfig(dt=dt, t_end=T_END, measurement="none")
        red = np.array([partial_trace(x[0], model.dims)
                        for x, _ in em_run(model, X, cfg, draw_innovations(cfg, 1))])
        t = np.arange(1, cfg.n_steps + 1) * dt
        errors.append(np.max(np.linalg.norm(red - closed_form(t, PLUS, kappa=kappa,
                                                                  delta=delta), axis=(1, 2))))
    assert errors[0] < 2e-2
    assert 1.8 <= errors[0] / errors[1] <= 2.2


def test_trace_distance_revives_after_the_amplitude_vanishes():
    cfg = SimConfig(dt=0.01, t_end=T_END, scheme="rk4", measurement="none")
    model = pseudomode(2)
    runs = [solve_qme(model, start(2, rho), cfg) for rho in (KET_E, KET_G)]
    t = np.array([s[0] for s in runs[0]])
    dist = np.array([0.5 * np.abs(np.linalg.eigvalsh(a[2] - b[2])).sum()
                     for a, b in zip(*runs)])
    # from |e> and |g> the distance is |c|^2
    assert np.max(np.abs(dist - abs(amplitude(t)) ** 2)) < 1e-8
    low = int(np.argmin(dist[t < 2.5]))
    assert 1.5 < t[low] < 2.0 and dist[low] < 1e-3  # c's first zero
    assert dist[:low + 1].max() == dist[0] == 1
    assert dist[low:].max() > dist[low] + 0.1  # it grows again: memory


def test_fixture_follows_the_closed_form():
    cfg = parse_config(FIXTURE)
    probe = cfg.model.probe.value_at(0.0)
    kappa = abs(probe[1, 0]) ** 2
    assert cfg.model.dims.aux == (3,) and cfg.sim.dt == 1e-3
    series = solve_qme(cfg.model, cfg.init, cfg.sim)
    t = np.array([s[0] for s in series])
    red = np.array([s[2] for s in series])
    assert t[-1] == T_END
    assert np.max(np.abs(red - closed_form(t, PLUS, kappa=kappa))) < 1e-11
