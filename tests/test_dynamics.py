import numpy as np
import pytest
import scipy.linalg

from vngrid import models
from vngrid.dynamics import (ControlPulse, PropagationConfig,
                             commutator_ratio, expm_propagate, max_timestep,
                             midpoint_timestep, project_state, step_cap,
                             taylor_step, tdse_adaptive)
from vngrid.errors import TimestepUnderflowError
from vngrid.models import coherent_state, momentum_coupling, position_coupling
from vngrid.reduced_space import (CellSet, ReducedBasis, cell_change,
                                  embed_coefficients, expand_cells)
from vngrid.solvers import TiseConfig, tise_adaptive

import dataclasses
import math
import weakref


def _coherent_initial(model, x0=2.5, p0=0.0, zeta=1e-6):
    grid, lat, pair = model.grids[0], model.lattices[0], model.pairs[0]
    sigma = np.sqrt(0.5)  # ground-state width for m = omega = 1
    psi = coherent_state(grid, x0, p0, sigma)
    coeffs = pair.G.conj().T @ psi * np.sqrt(grid.dx)
    idx = np.where(np.abs(coeffs) >= zeta)[0]
    cells = expand_cells(CellSet(idx[:, None]), lat)
    c0 = project_state(model.product, cells, psi * np.sqrt(grid.dx))
    rb = ReducedBasis.create(model.product, cells)
    return cells, c0 / rb.physical_norm(c0)


# -- taylor propagator -----------------------------------------------------------

def test_taylor_zero_generator(rng):
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    cfg = PropagationConfig()
    out = taylor_step(np.zeros((12, 12)), psi, 0.3, cfg)
    assert out.terms == 1 and not out.too_large
    np.testing.assert_allclose(out.psi, psi)


def test_taylor_scalar_phase():
    lam = 0.8
    psi = np.array([1.0 + 0j])
    out = taylor_step(lam * np.eye(1), psi, 1.0, PropagationConfig())
    assert abs(out.psi[0] - np.exp(-1j * lam)) < 1e-12


def test_taylor_matches_expm(rng):
    n = 32
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    s = rng.normal(size=(n, n)); s = scipy.linalg.expm(0.1 * (s - s.T))
    h1 = s @ h @ np.linalg.inv(s)   # similar to Hermitian, like the engine's
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    tau = 0.1 / np.abs(np.linalg.eigvals(h1)).max()
    out = taylor_step(h1, psi, tau, PropagationConfig())
    ref = expm_propagate(h1, psi, tau)
    assert np.abs(out.psi - ref).max() < 1e-10


def test_taylor_signals_step_too_large(rng):
    n = 16
    h = np.diag(np.linspace(1.0, 30.0, n))
    psi = np.ones(n, dtype=complex) / np.sqrt(n)
    cfg = PropagationConfig(max_taylor_terms=30)
    out = taylor_step(h, psi, 0.6, cfg)   # ||H tau|| ~ 18
    assert out.too_large and out.psi is None
    assert out.terms == 30
    # the same step succeeds once the term budget accommodates the series
    out2 = taylor_step(h, psi, 0.6,
                       PropagationConfig(max_taylor_terms=80))
    assert not out2.too_large
    ref = expm_propagate(h, psi, 0.6)
    assert np.abs(out2.psi - ref).max() < 1e-9


def _random_generator(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a / np.sqrt(n)          # spectral radius about 1


def _recursion(g, psi, tau, cfg):
    """The Taylor series as ``numpy`` writes it: the kernel's reference bits."""
    acc = psi.astype(complex, copy=True)
    term = acc.copy()
    for k in range(1, cfg.max_taylor_terms + 1):
        term = (-1j * tau / k) * (g @ term)
        acc += term
        if np.linalg.norm(term) <= cfg.taylor_eps:
            return acc, k
    return None, cfg.max_taylor_terms


@pytest.mark.parametrize("n", [55, 499])
def test_taylor_kernel_reproduces_the_recursion_bits(rng, n):
    g = _random_generator(rng, n)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    cfg = PropagationConfig()
    ref, terms = _recursion(g, psi, 0.4, cfg)
    out = taylor_step(g, psi, 0.4, cfg)
    assert not out.too_large and out.terms == terms > 5
    assert np.array_equal(out.psi, ref)


def test_taylor_kernel_reads_a_strided_generator_as_its_copy(rng):
    n = 55
    big = _random_generator(rng, 2 * n)
    view = big[::2, 1::2]
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    cfg = PropagationConfig()
    out = taylor_step(view, psi, 0.3, cfg)
    dense = taylor_step(np.ascontiguousarray(view), psi, 0.3, cfg)
    assert out.terms == dense.terms
    assert np.array_equal(out.psi, dense.psi)


def test_taylor_kernel_too_large_leaves_its_input(rng):
    n = 55
    g = _random_generator(rng, n)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    g_before, psi_before = g.copy(), psi.copy()
    out = taylor_step(g, psi, 20.0, PropagationConfig(max_taylor_terms=10))
    assert out.too_large and out.psi is None and out.terms == 10
    assert np.array_equal(psi, psi_before) and np.array_equal(g, g_before)


def test_taylor_kernel_rejects_a_mismatched_generator(rng):
    psi = np.ones(4, dtype=complex)
    for g in (np.eye(5), np.ones((4, 3)), np.eye(4)[None]):
        with pytest.raises(ValueError):
            taylor_step(g, psi, 0.1, PropagationConfig())
    with pytest.raises(ValueError):
        taylor_step(np.zeros((0, 0)), np.zeros(0), 0.1, PropagationConfig())


def test_expm_propagate_properties(rng):
    n = 24
    a = rng.normal(size=(n, n)); h = 0.5 * (a + a.T)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    np.testing.assert_allclose(expm_propagate(h, psi, 0.0), psi, atol=1e-14)
    out = expm_propagate(h, psi, 0.7)
    assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) < 1e-12


# -- step bound and pulses ---------------------------------------------------------

def test_max_timestep_values():
    assert max_timestep(1e-4, 0.2, 2.5) == pytest.approx(0.01, rel=1e-12)
    assert max_timestep(4e-4, 0.2, 2.5) == pytest.approx(0.02, rel=1e-12)
    assert max_timestep(1e-6, 1.0, 1.0) == pytest.approx(
        0.0007071067811865475, rel=1e-12)
    with pytest.raises(ValueError):
        max_timestep(0.0, 1.0, 1.0)


def test_nir_pulse_shape():
    p = ControlPulse.nir(amplitude=0.6627, period=110.32)
    assert p.value(0.0) == 0.0
    t_end = 4 * 110.32
    assert p.value(t_end) == pytest.approx(0.0, abs=1e-12)
    # one-sided finite differences: exactly zero slope at both endpoints
    h = 1e-4
    assert abs(p.value(h) - p.value(0.0)) / h < 1e-6 * 0.6627 + 1e-6
    assert abs(p.value(t_end) - p.value(t_end - h)) / h < 1e-6 * 0.6627 + 1e-6
    t = np.linspace(0, t_end, 4000)
    u = np.array([p.value(ti) for ti in t])
    assert np.abs(u).max() <= 0.6627 + 1e-12
    assert np.abs(u).max() > 0.5   # actually reaches near peak amplitude
    assert p.value(-1.0) == 0.0 and p.value(t_end + 1.0) == 0.0


def test_xuv_pulse_envelope_center():
    p = ControlPulse.xuv(amplitude=0.08, period=2.07, sigma=6.207)
    t = np.linspace(0, 20, 20001)
    # the Gaussian envelope of the sine carrier
    env = p.amplitude * np.exp(-(t - 1.25 * p.period) ** 2
                               / (2.0 * p.sigma ** 2))
    assert t[np.argmax(env)] == pytest.approx(1.25 * 2.07, abs=2e-3)
    assert env.max() == pytest.approx(0.08, rel=1e-6)


def test_table_pulse_interpolation():
    p = ControlPulse.table([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert p.value(0.5) == pytest.approx(0.5)
    assert p.bounds().slope == pytest.approx(1.0, rel=1e-2)


def test_midpoint_timestep_values():
    # (6 zeta / (K (u'' + 2 K u')))^(1/3) = (6e-4 / (0.5 * 1.2))^(1/3)
    assert midpoint_timestep(1e-4, 0.5, 1.0, 0.2) == pytest.approx(0.1, rel=1e-12)
    # no curvature: the commutator term alone, (6e-4 / (0.5 * 1.0))^(1/3)
    assert midpoint_timestep(1e-4, 0.5, 1.0, 0.0) == pytest.approx(
        0.0012 ** (1 / 3), rel=1e-12)
    # a slope jump J caps at sqrt(2 zeta / (K J)) = sqrt(2e-4 / 2) = 0.01
    assert midpoint_timestep(1e-4, 0.5, 1.0, 0.2, 4.0) == pytest.approx(
        0.01, rel=1e-12)
    # a small jump leaves the cube root: sqrt(2e-4 / 0.01) > 0.1
    assert midpoint_timestep(1e-4, 0.5, 1.0, 0.2, 0.02) == pytest.approx(
        0.1, rel=1e-12)
    assert midpoint_timestep(1e-4, 0.5, 1.0, np.inf) == 0.0
    with pytest.raises(ValueError):
        midpoint_timestep(0.0, 0.5, 1.0, 0.2)
    with pytest.raises(ValueError):
        midpoint_timestep(1e-4, 0.5, 1.0, -0.2)


def _scalar_value(p, t):
    """The signal formulas one call at a time, in ``math``."""
    s = t - p.t_on
    if p.kind == "nir":
        if not 0.0 <= s <= 4.0 * p.period:
            return 0.0
        return (p.amplitude * math.sin(2.0 * math.pi * s / p.period - math.pi)
                * math.sin(math.pi * s / (4.0 * p.period)) ** 2)
    if p.kind == "xuv":
        if s < 0.0:
            return 0.0
        env = math.exp(-(s - 1.25 * p.period) ** 2 / (2.0 * p.sigma ** 2))
        return p.amplitude * math.sin(2.0 * math.pi * s / p.period) * env
    return float(np.interp(t, p.times, p.samples))


@pytest.mark.parametrize("pulse", [
    ControlPulse.nir(0.066, 11.0, t_on=0.3),
    ControlPulse.xuv(0.02, 2.07, 1.5, t_on=0.25),
    ControlPulse.table([0.0, 0.5, 1.5, 2.0], [0.0, 2.5, 2.5, -1.0])])
def test_vectorized_signal_matches_scalar_formula(pulse):
    t = np.linspace(-1.0, 50.0, 5001)
    ref = np.array([_scalar_value(pulse, ti) for ti in t])
    scale = np.abs(ref).max()
    assert np.abs(pulse.values(t) - ref).max() <= 1e-15 * scale
    assert all(abs(pulse.value(ti) - r) <= 1e-15 * scale
               for ti, r in zip(t[::50], ref[::50]))


def test_signal_bounds_of_each_kind():
    # nir: u' and u'' peak near A w and A w^2 (the envelope is near 1 there)
    nir = ControlPulse.nir(0.066, 11.0).bounds()
    w = 2 * np.pi / 11.0
    assert nir.slope == pytest.approx(0.066 * w, rel=0.05)
    assert nir.curvature == pytest.approx(0.066 * w ** 2, rel=0.1)
    assert nir.jump == 0.0
    # xuv: the slope jumps at onset by A w exp(-(5T/4)^2 / (2 sigma^2))
    xuv = ControlPulse.xuv(0.02, 2.07, 1.5).bounds()
    w = 2 * np.pi / 2.07
    assert xuv.jump == pytest.approx(
        0.02 * w * np.exp(-(1.25 * 2.07) ** 2 / (2 * 1.5 ** 2)), rel=1e-12)
    assert 0 < xuv.curvature <= 0.02 * w ** 2 * 1.1
    # table: piecewise linear, so u'' is unbounded
    table = ControlPulse.table([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]).bounds()
    assert table.slope == pytest.approx(1.0, rel=1e-2)
    assert table.curvature == np.inf
    # the slope is read off the knots, so a segment shorter than any
    # sampling of the support still sets it
    steep = ControlPulse.table([0.0, 1000.0, 1000.001, 2000.0],
                               [0.0, 0.0, 1.0, 1.0]).bounds()
    assert steep.slope == pytest.approx(1000.0, rel=1e-9)
    assert steep.curvature == np.inf and steep.jump == 0.0
    # and a constant table has no slope at all
    assert ControlPulse.table([0.0, 1.0], [0.5, 0.5]).bounds() == (0.0, 0.0, 0.0)
    # knot times that do not increase describe no interpolant
    with pytest.raises(ValueError, match="increase"):
        ControlPulse.table([0.0, 1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0])


def _coupled(model, coupling=position_coupling, n=1):
    return dataclasses.replace(model.spec,
                               control_terms=(coupling(model.grids),) * n)


def test_zero_amplitude_pulses_set_no_cap(ho_model):
    cfg = PropagationConfig(zeta=1e-4)
    spec = _coupled(ho_model)
    for pulse in (ControlPulse.nir(0.0, 11.0), ControlPulse.xuv(0.0, 2.07, 1.5),
                  ControlPulse.table([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
                  ControlPulse.table([0.0, 1.0], [0.5, 0.5]),
                  ControlPulse.table([1.0], [0.5])):     # no support
        assert step_cap(spec, (pulse,), cfg) is None
    assert step_cap(ho_model.spec, (), cfg) is None


def test_table_pulse_keeps_the_paper_cap(ho_model):
    pulse = ControlPulse.table([0.0, 0.5, 1.5, 2.0, 10.0],
                               [0.0, 2.5, 2.5, 0.0, 0.0])
    cap = step_cap(_coupled(ho_model, momentum_coupling), (pulse,),
                   PropagationConfig(zeta=1e-3))
    assert cap.midpoint == 0.0 and cap.binding == "first_order"
    assert cap.tau == max_timestep(1e-3, ho_model.grids[0].K,
                                   pulse.bounds().slope)


def test_commutator_ratio_of_each_coupling(ho_model):
    # position: |[p^2/2m, x]| / |x| = (K / m) / max|x|, max|x| = L/2 = 12;
    # momentum: |[V, p]| / |p| = max|V'| / K, V' = x up to the second-order
    # difference at the grid's ends (exact for the quadratic)
    k = ho_model.grids[0].K
    xc = ho_model.grids[0].centered_points
    assert commutator_ratio(_coupled(ho_model)) == pytest.approx(k / 12.0,
                                                                 rel=1e-12)
    assert commutator_ratio(_coupled(ho_model, momentum_coupling)) == (
        pytest.approx(np.abs(xc).max() / k, rel=1e-12))
    assert commutator_ratio(ho_model.spec) == 0.0


@pytest.mark.parametrize("model, coupling", [
    (models.harmonic(mass=0.01), position_coupling),         # ratio 131 > K 15.7
    (models.harmonic(L=200.0, N=120), momentum_coupling)],   # ratio 53 > K 1.9
    ids=["light-mass-position", "coarse-grid-momentum"])
def test_midpoint_bound_needs_the_commutator_condition(model, coupling):
    # where |[H0, X]| > K |X| the midpoint derivation fails: the paper's cap
    pulse = ControlPulse.xuv(0.02, 2.07, 1.5)
    spec = _coupled(model, coupling)
    k = model.grids[0].K
    assert commutator_ratio(spec) > k
    cap = step_cap(spec, (pulse,), PropagationConfig(zeta=1e-4))
    assert cap.midpoint == 0.0 and cap.binding == "first_order"
    assert cap.tau == max_timestep(1e-4, k, pulse.bounds().slope)
    # the same pulse on the default harmonic grid takes the midpoint bound
    default = step_cap(_coupled(models.harmonic(), coupling), (pulse,),
                       PropagationConfig(zeta=1e-4))
    assert default.binding == "midpoint"


# -- adaptive propagation -----------------------------------------------------------

def test_coherent_state_follows_classical_ellipse(ho_model):
    cells, c0 = _coherent_initial(ho_model, x0=2.5)
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=25)
    traj = tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                         (0.0, 2 * np.pi), cfg=cfg)
    assert np.abs(traj.norms - 1.0).max() <= 1e-6
    lat = ho_model.lattices[0]
    L = ho_model.grids[0].L
    for snap in traj.snapshots:
        q = np.abs(snap.coefficients) ** 2
        q = q / q.sum()
        pos = np.array([
            [lat.x_centers[a] - 0.5 * L, lat.p_centers[b]]
            for (a, b) in (lat.cell_coords(i) for (i,) in snap.cells)])
        mean = q @ pos
        x_cl = 2.5 * np.cos(snap.t)
        p_cl = -2.5 * np.sin(snap.t)
        assert abs(mean[0] - x_cl) <= lat.dx_lat
        assert abs(mean[1] - p_cl) <= lat.dp_lat


def test_coherent_state_matches_grid_oracle(ho_model):
    # short propagation vs dense full-grid exponential
    from vngrid.hamiltonian import dense_grid_hamiltonian
    cells, c0 = _coherent_initial(ho_model)
    cfg = PropagationConfig(zeta=1e-6, tau0=0.02, snapshot_every=0)
    t_end = 0.5
    traj = tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                         (0.0, t_end), cfg=cfg)
    grid = ho_model.grids[0]
    psi0 = ho_model.product.reconstruct(cells, c0)
    h = dense_grid_hamiltonian(ho_model.spec)
    ref = scipy.linalg.expm(-1j * t_end * h * grid.dx / grid.dx) @ psi0
    got = ho_model.product.reconstruct(traj.final_cells,
                                       traj.final_coefficients)
    # align global phase before comparing
    phase = np.vdot(got, ref)
    phase /= abs(phase)
    assert np.abs(got * phase - ref).max() < 1e-6


def test_ground_state_is_stationary(dw_model):
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=1))
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
    traj = tdse_adaptive(dw_model.spec, dw_model.product,
                         res.eigenvectors[:, 0], res.final_cells,
                         (0.0, 5.0), cfg=cfg)
    start, _ = _align(res.final_cells, res.eigenvectors[:, 0],
                      traj.final_cells, traj.final_coefficients)
    drift = np.abs(np.abs(start) - np.abs(traj.final_coefficients)).max()
    assert drift <= 1e-6 * 5.0
    assert np.abs(traj.norms - 1.0).max() < 1e-8


def test_zero_amplitude_pulse_matches_field_free_run(dw_model):
    # a zero-slope pulse sets no tau cap, and zero signals run the drift alone
    from vngrid import models

    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=1))
    driven = dataclasses.replace(
        dw_model.spec, control_terms=(models.position_coupling(dw_model.grids),))
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
    args = (dw_model.product, res.eigenvectors[:, 0], res.final_cells,
            (0.0, 5.0))
    free = tdse_adaptive(dw_model.spec, *args, cfg=cfg)
    zero = tdse_adaptive(driven, *args, pulses=(ControlPulse.nir(0.0, 11.0),),
                         cfg=cfg)
    np.testing.assert_array_equal(zero.times, free.times)
    np.testing.assert_array_equal(zero.taus, free.taus)
    np.testing.assert_array_equal(zero.n_active, free.n_active)
    assert zero.final_cells == free.final_cells
    assert np.abs(zero.final_coefficients
                  - free.final_coefficients).max() <= 1e-12


def test_zero_scale_coupling_has_a_zero_block_and_keeps_the_norm(ho_model):
    # a coupling scaled by 0 has no terms, so no factor stack: its block is
    # exactly zero, and a pulse through it drives nothing
    spec = dataclasses.replace(
        ho_model.spec,
        control_terms=(position_coupling(ho_model.grids, scale=0.0),))
    res = tise_adaptive(spec, ho_model.product,
                        TiseConfig(zeta=1e-6, n_modes=1))
    ham = res.hamiltonian
    assert ham._controls == (None,)
    assert not ham.Hbb_controls[0].any()
    traj = tdse_adaptive(spec, ho_model.product, res.eigenvectors[:, 0],
                         res.final_cells, (0.0, 0.3),
                         pulses=(ControlPulse.nir(0.1, 2.0),),
                         cfg=PropagationConfig(zeta=1e-6, tau0=0.05,
                                               snapshot_every=0))
    assert traj.n_steps > 0
    assert np.abs(traj.norms - 1.0).max() <= 1e-10


def _driven_run(model, pulses, **cfg):
    """A short run from the ground state, every pulse on one position coupling."""
    spec = _coupled(model, n=len(pulses))
    res = tise_adaptive(spec, model.product, TiseConfig(zeta=1e-6, n_modes=1))
    cfg = PropagationConfig(**{"zeta": 1e-4, "tau0": 0.05, "snapshot_every": 0,
                               **cfg})
    return tdse_adaptive(spec, model.product, res.eigenvectors[:, 0],
                         res.final_cells, (0.0, 0.3), pulses=pulses, cfg=cfg)


def test_two_pulses_on_one_coupling_cap_their_summed_signal(ho_model):
    # dH/dt carries u'_1 + u'_2 on the one block: both bounds read the sums
    pulses = (ControlPulse.nir(0.066, 11.0), ControlPulse.xuv(0.02, 2.07, 1.5))
    b1, b2 = (p.bounds() for p in pulses)
    k = ho_model.grids[0].K
    traj = _driven_run(ho_model, pulses)
    cap = traj.tau_cap
    assert cap.first_order == pytest.approx(
        max_timestep(1e-4, k, b1.slope + b2.slope), rel=1e-12)
    assert cap.first_order < max_timestep(1e-4, k, max(b1.slope, b2.slope))
    assert cap.midpoint == pytest.approx(midpoint_timestep(
        1e-4, k, b1.slope + b2.slope, b1.curvature + b2.curvature,
        b1.jump + b2.jump), rel=1e-12)
    assert traj.taus[0] == pytest.approx(min(0.05, cap.tau), rel=1e-12)


def test_xuv_driven_first_step_is_the_cap(ho_model):
    pulse = ControlPulse.xuv(0.5, 0.5, 0.2)
    b = pulse.bounds()
    k = ho_model.grids[0].K
    tau_cap = max(max_timestep(1e-4, k, b.slope),
                  midpoint_timestep(1e-4, k, b.slope, b.curvature, b.jump))
    traj = _driven_run(ho_model, (pulse,))
    assert traj.tau_cap.binding == "midpoint"
    assert traj.taus[0] == pytest.approx(min(0.05, tau_cap), rel=1e-12)
    assert traj.taus.max() <= tau_cap * (1 + 1e-12)
    # started at the paper's cap and never grown, no step exceeds it (the
    # paper-cap run of the validate check's driven oracle)
    first = max_timestep(1e-4, k, b.slope)
    paper = _driven_run(ho_model, (pulse,), tau0=first, growth_patience=10 ** 9)
    assert paper.taus[0] == first
    assert paper.taus.max() <= first


def _align(cells_a, vec_a, cells_b, vec_b):
    return embed_coefficients(vec_a, cell_change(cells_a, cells_b)), vec_b


def test_momentum_kick_expands_in_p(ho_model):
    spec = dataclasses.replace(
        ho_model.spec, control_terms=(momentum_coupling(ho_model.grids),))
    cells, c0 = _coherent_initial(ho_model, x0=0.0, zeta=1e-2)
    pulse = ControlPulse.table([0.0, 0.5, 1.5, 2.0, 10.0],
                               [0.0, 2.5, 2.5, 0.0, 0.0])
    cfg = PropagationConfig(zeta=1e-3, tau0=0.05)
    traj = tdse_adaptive(spec, ho_model.product, c0, cells, (0.0, 4.0),
                         pulses=(pulse,), cfg=cfg)
    lat = ho_model.lattices[0]
    p_of = lambda cs: [lat.p_centers[lat.cell_coords(i)[1]] for (i,) in cs]
    assert max(p_of(traj.final_cells)) > max(p_of(cells))
    # first step obeys the control-slope cap
    cap = max_timestep(cfg.zeta, ho_model.grids[0].K,
                       pulse.bounds().slope)
    assert traj.taus[0] == pytest.approx(min(0.05, cap), rel=1e-12)
    # discarded amplitude stays within the accounting bound
    assert traj.discarded[-1] <= 10 * cfg.zeta * (traj.times[-1] - 0.0)


def test_discarded_counts_a_change_at_the_last_step(ho_model):
    # cut the run right after a basis change: discarded[-1] is still the
    # total mass that every change lost
    cells, c0 = _coherent_initial(ho_model)
    cfg = PropagationConfig(zeta=1e-4, tau0=0.05, snapshot_every=0)
    run = lambda steps: tdse_adaptive(ho_model.spec, ho_model.product, c0,
                                      cells, (0.0, 5.0), cfg=cfg,
                                      max_steps=steps)
    probe = run(None)
    event_times = {t for t, kind, _ in probe.events if kind == "basis"}
    traj = run(max(i for i, t in enumerate(probe.times) if t in event_times) + 1)
    assert traj.events[-1][:2] == (traj.times[-1], "basis")
    final = ReducedBasis.create(ho_model.product, traj.final_cells).physical_norm(
        traj.final_coefficients)
    # norms[i] is the norm before step i's change and field-free steps keep
    # it (to 2e-15 measured), so the next norm is the one after the change
    after = np.append(traj.norms[1:], final)
    changed = np.isin(traj.times, list(event_times))
    total = np.abs(traj.norms[changed] ** 2 - after[changed] ** 2).sum()
    assert abs(traj.norms[-1] ** 2 - final ** 2) > 1e-10    # the last loss
    assert abs(traj.discarded[-1] - total) <= 1e-13


def test_controller_shrinks_on_overshoot(ho_model):
    cells, c0 = _coherent_initial(ho_model, x0=2.5)
    cfg = PropagationConfig(zeta=1e-6, tau0=0.8, snapshot_every=0)
    traj = tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                         (0.0, 4.0), cfg=cfg)
    kinds = {k for _, k, _ in traj.events}
    assert "shrink" in kinds and "basis" in kinds
    assert np.abs(traj.norms - 1.0).max() <= 1e-6


def test_growth_after_quiet_stretch(dw_model):
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=1))
    cfg = PropagationConfig(zeta=1e-6, tau0=1e-3, growth_patience=3,
                            snapshot_every=0)
    traj = tdse_adaptive(dw_model.spec, dw_model.product,
                         res.eigenvectors[:, 0], res.final_cells,
                         (0.0, 2.0), cfg=cfg)
    assert any(k == "grow" for _, k, _ in traj.events)
    assert traj.taus[-1] > 1e-3


def test_underflow_aborts_with_event_log(ho_model):
    # a series cut at two terms never meets a tail cutoff of 1e-300, so
    # every step halves; 0.05 halves below 1e-12 on the 36th rejection, and
    # the run's shrink events ride on the exception
    cells, c0 = _coherent_initial(ho_model)
    cfg = PropagationConfig(max_taylor_terms=2, taylor_eps=1e-300)
    with pytest.raises(TimestepUnderflowError, match="series") as err:
        tdse_adaptive(ho_model.spec, ho_model.product, c0, cells, (0.0, 1.0),
                      cfg=cfg)
    events = err.value.events
    assert len(events) == 36
    assert all(t == 0.0 and kind == "shrink" for t, kind, _ in events)
    assert events[-1][2].startswith("series: tau -> ")


def test_initial_norm_validated(ho_model):
    cells, c0 = _coherent_initial(ho_model)
    with pytest.raises(ValueError):
        tdse_adaptive(ho_model.spec, ho_model.product, 2.0 * c0, cells,
                      (0.0, 1.0))


def test_fixed_basis_norm_conservation(dw_model, rng):
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=4))
    rb = res.reduced_basis
    ham = res.hamiltonian
    psi = (res.eigenvectors @ np.array([0.5, 0.5, 0.5, 0.5])).astype(complex)
    psi /= rb.physical_norm(psi)
    cfg = PropagationConfig(tau0=0.05)
    h1 = rb.Stilde @ ham.Hbb
    for _ in range(100):
        psi = taylor_step(h1, psi, 0.05, cfg).psi
    assert abs(rb.physical_norm(psi) - 1.0) <= 100 * 1e-10


# -- handing over the ground state's basis and Hamiltonian -------------------------

def _driven_helium(he_model, product=None):
    from vngrid import models

    pos = models.position_coupling(he_model.grids)
    spec = dataclasses.replace(
        he_model.spec,
        control_terms=(pos, pos, momentum_coupling(he_model.grids)))
    pulses = (ControlPulse.table([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
              ControlPulse.xuv(0.5, 0.5, 0.2),
              ControlPulse.table([0.0, 0.3, 0.6, 1.0], [0.0, 1.0, 0.0, 0.0]))
    ground = tise_adaptive(spec, product or he_model.product,
                           TiseConfig(zeta=1e-2, n_modes=1))
    return spec, pulses, ground


def test_handoff_matches_fresh_build(he_model, monkeypatch):
    # two axes, two pulses sharing one coupling, and basis changes on the way
    import vngrid.dynamics as dynamics

    spec, pulses, ground = _driven_helium(he_model)
    cfg = PropagationConfig(zeta=1e-2, tau0=0.02, snapshot_every=0)
    args = (spec, he_model.product, ground.eigenvectors[:, 0],
            ground.final_cells, (0.0, 1.0))
    fresh = tdse_adaptive(*args, pulses=pulses, cfg=cfg)
    assert sum(kind == "basis" for _, kind, _ in fresh.events) > 0

    def no_rebuild(*a, **k):
        raise AssertionError("handed-over objects must not be rebuilt")

    monkeypatch.setattr(dynamics, "ReducedHamiltonian", no_rebuild)
    monkeypatch.setattr(dynamics.ReducedBasis, "create", no_rebuild)
    ham = ground.hamiltonian
    cells, blocks = ham.cells, [weakref.ref(b) for b in ham.blocks]
    assert len(blocks) == 3
    handed = tdse_adaptive(*args, pulses=pulses, cfg=cfg,
                           basis=ground.reduced_basis, hamiltonian=ham)
    assert ground.reduced_basis.cells == handed.final_cells != cells
    # the basis adapts in place; the handed-over Hamiltonian keeps its cells
    # and gives its blocks up to staging
    assert ham.cells is cells
    assert ham.blocks == () and all(ref() is None for ref in blocks)
    np.testing.assert_array_equal(handed.times, fresh.times)
    np.testing.assert_array_equal(handed.n_active, fresh.n_active)
    assert handed.final_cells == fresh.final_cells
    assert np.abs(handed.norms - fresh.norms).max() <= 1e-12
    assert np.abs(handed.final_coefficients
                  - fresh.final_coefficients).max() <= 1e-12


def test_handoff_frees_the_blocks_as_it_stages(he_model, monkeypatch):
    # a folded ground search hands over to a driven run: staging frees
    # every block and the overlap, and what stays is the inverse and one
    # generator per distinct block (the drift, x_1 + x_2 for two pulses,
    # p_1 + p_2)
    folded = he_model.product.folded()
    spec, pulses, ground = _driven_helium(he_model, folded)
    ham, rb = ground.hamiltonian, ground.reduced_basis
    blocks = [weakref.ref(b) for b in ham.blocks]
    assert len(blocks) == 3
    alive, stage = [], ReducedBasis.stage

    def watched(basis, staged):
        stage(basis, staged)
        alive.append(sum(ref() is not None for ref in blocks))

    monkeypatch.setattr(ReducedBasis, "stage", watched)
    traj = tdse_adaptive(spec, folded, ground.eigenvectors[:, 0],
                         ground.final_cells, (0.0, 0.3), pulses=pulses,
                         cfg=PropagationConfig(zeta=1e-2, tau0=0.02,
                                               snapshot_every=0),
                         basis=rb, hamiltonian=ham)
    assert alive == [0]                 # one staging, no refresh
    assert ham.blocks == ()
    n = rb.n
    square = sorted(name for name, value in vars(rb).items()
                    if isinstance(value, np.ndarray) and value.shape == (n, n))
    assert square == ["_stilde"] and rb.Sinv_tilde is None
    assert traj.generator is rb.generators and len(rb.generators) == 3
    assert all(g.shape == (n, n) for g in rb.generators)


def test_driven_helium_peaks_near_its_propagation_matrices(he_model):
    # vngrid tdse's helium run in small: a folded ground search at zeta
    # 1e-4 (499 rows) hands over to 0.3 time units of x_1 + x_2 driven by
    # two pulses.  Propagation holds Stilde, two generators and the
    # combined buffer; the search's assembly and carries are bounded to
    # panels and staging adds one matrix at a time, so nothing peaks far
    # above those four n x n matrices (holding the overlap too, and full
    # temporaries, read 6.0).
    # Traced from before the search, so that what it frees counts
    import tracemalloc

    pos = position_coupling(he_model.grids)
    spec = dataclasses.replace(he_model.spec, control_terms=(pos, pos))
    folded = he_model.product.folded()
    pulses = (ControlPulse.nir(0.066, 11.0),
              ControlPulse.xuv(0.02, 2.07, 1.5, t_on=0.25))
    tracemalloc.start()
    try:
        ground = tise_adaptive(spec, folded, TiseConfig(zeta=1e-4, n_modes=1))
        traj = tdse_adaptive(spec, folded, ground.eigenvectors[:, 0],
                             ground.final_cells, (0.0, 0.3), pulses=pulses,
                             cfg=PropagationConfig(zeta=1e-4, tau0=0.02,
                                                   snapshot_every=0),
                             basis=ground.reduced_basis,
                             hamiltonian=ground.hamiltonian)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(ground.final_cells)
    assert n == 499 and traj.times[-1] == pytest.approx(0.3)
    assert len(traj.generator) == 2
    assert peak <= 5.5 * n * n * 16, peak / (n * n * 16)


def test_handoff_mismatch_rejected(dw_model, he_model):
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=1))
    psi = res.eigenvectors[:, 0]
    other = CellSet(res.final_cells.indices[1:])
    with pytest.raises(ValueError, match="handed-over basis"):
        tdse_adaptive(dw_model.spec, dw_model.product, psi, other,
                      (0.0, 0.1), basis=res.reduced_basis)
    with pytest.raises(ValueError, match="handed-over Hamiltonian"):
        tdse_adaptive(dw_model.spec, dw_model.product, psi, other,
                      (0.0, 0.1), hamiltonian=res.hamiltonian)
    driven = dataclasses.replace(
        dw_model.spec, control_terms=(momentum_coupling(dw_model.grids),))
    with pytest.raises(ValueError, match="handed-over Hamiltonian"):
        tdse_adaptive(driven, dw_model.product, psi, res.final_cells,
                      (0.0, 0.1), pulses=(ControlPulse.nir(0.1, 1.0),),
                      hamiltonian=res.hamiltonian)
    # the same basis pairs, folded on one side only, in both directions
    unfolded, folded = he_model.product, he_model.product.folded()
    for own, target in ((unfolded, folded), (folded, unfolded)):
        ground = tise_adaptive(he_model.spec, own,
                               TiseConfig(zeta=1e-2, n_modes=1))
        for handed in ({"basis": ground.reduced_basis},
                       {"hamiltonian": ground.hamiltonian}):
            with pytest.raises(ValueError, match="another product basis"):
                tdse_adaptive(he_model.spec, target, ground.eigenvectors[:, 0],
                              ground.final_cells, (0.0, 0.1), **handed)


def test_generator_staged_once_and_carried_through_every_event(he_model,
                                                              monkeypatch):
    _generator_staged_once(he_model, monkeypatch, folded=False)


def test_generator_staged_once_and_carried_through_every_event_folded(
        he_model, monkeypatch):
    # two-axis adaptation on the exchange-symmetric sector
    _generator_staged_once(he_model, monkeypatch, folded=True)


def _generator_staged_once(he_model, monkeypatch, folded):
    # drift, the shared position block and the momentum block: staged once
    # on the handed-over basis, then carried through each basis change
    product = he_model.product.folded() if folded else he_model.product
    spec, pulses, ground = _driven_helium(he_model, product)
    rb, ham = ground.reduced_basis, ground.hamiltonian
    stagings, errors = [], []
    stage, update = ReducedBasis.stage, ReducedBasis.update

    def check(basis):
        # against a fresh assembly at the basis's cells
        assert basis is rb and len(basis.generators) == 3
        for g, h in zip(basis.generators, ham.rows(rb.cells, rb.cells)):
            ref = rb.Stilde @ h
            errors.append(np.abs(g - ref).max() / np.abs(ref).max())

    def logged_stage(self, blocks):
        stagings.append(len(self.cells))
        stage(self, blocks)
        check(self)

    def checked_update(self, change, rows=()):
        out = update(self, change, rows)
        check(self)
        return out

    monkeypatch.setattr(ReducedBasis, "stage", logged_stage)
    monkeypatch.setattr(ReducedBasis, "update", checked_update)
    cfg = PropagationConfig(zeta=1e-2, tau0=0.02, snapshot_every=0)
    traj = tdse_adaptive(spec, product, ground.eigenvectors[:, 0],
                         ground.final_cells, (0.0, 1.0), pulses=pulses,
                         cfg=cfg, basis=rb, hamiltonian=ham)
    events = sum(k == "basis" for _, k, _ in traj.events)
    assert events > 0
    assert stagings == [len(ground.final_cells)]
    assert traj.generator is rb.generators and rb.cells == traj.final_cells
    # three blocks at the staging and after every event
    assert len(errors) == 3 * (1 + events)
    assert max(errors) <= 1e-12


def test_propagation_assembles_only_added_rows(he_model, monkeypatch):
    # after the staging, a basis change assembles the added cells' rows of
    # each distinct block and carries no Hermitian matrix: neither a
    # Hamiltonian block nor the overlap, which staging dropped
    import vngrid.dynamics as dynamics
    import vngrid.hamiltonian as hamiltonian
    import vngrid.reduced_space as reduced_space
    from vngrid.hamiltonian import ReducedHamiltonian

    spec, pulses, ground = _driven_helium(he_model)
    changes, blocks, carried = [], [], []

    def spy(owner, name, log):
        real = getattr(owner, name)

        def logged(*args, **kwargs):
            out = real(*args, **kwargs)
            log.append(out if owner is dynamics else args)
            return out

        monkeypatch.setattr(owner, name, logged)

    spy(dynamics, "cell_change", changes)
    spy(ReducedHamiltonian, "_block", blocks)
    spy(hamiltonian, "carry_hermitian", carried)
    spy(reduced_space, "carry_hermitian", carried)
    cfg = PropagationConfig(zeta=1e-2, tau0=0.02, snapshot_every=0)
    traj = tdse_adaptive(spec, he_model.product, ground.eigenvectors[:, 0],
                         ground.final_cells, (0.0, 1.0), pulses=pulses,
                         cfg=cfg, basis=ground.reduced_basis,
                         hamiltonian=ground.hamiltonian)
    events = sum(k == "basis" for _, k, _ in traj.events)
    assert events > 0 and len(changes) == events
    assert carried == []
    # three distinct blocks: drift, the shared position and the momentum one
    assert len(blocks) == 3 * events
    for i, (_, rows, cols, _) in enumerate(blocks):
        change = changes[i // 3]
        assert rows == change.added and cols == change.new


def test_every_basis_change_is_one_block_update(ho_model, monkeypatch):
    # a clean run never refreshes: the inverse is formed once, at the first
    # read of Stilde, and each basis change makes exactly one block update
    import vngrid.reduced_space as reduced_space

    cells, c0 = _coherent_initial(ho_model)
    calls = [[]]   # the inverse routines called: before any update, then per update

    def spy(name):
        real = getattr(reduced_space, name)

        def counted(*args, **kwargs):
            calls[-1].append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(reduced_space, name, counted)

    for name in ("grow_inverse", "shrink_inverse", "_fresh_inverse"):
        spy(name)
    update = ReducedBasis.update

    def logged_update(self, *args, **kwargs):
        calls.append([])
        return update(self, *args, **kwargs)

    monkeypatch.setattr(ReducedBasis, "update", logged_update)
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
    traj = tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                         (0.0, 20.0), cfg=cfg)
    kinds = [k for _, k, _ in traj.events]
    assert "refresh" not in kinds
    assert calls[0] == ["_fresh_inverse"]
    assert len(calls) - 1 == kinds.count("basis") > 100
    assert all(c == ["grow_inverse"] for c in calls[1:])
    assert traj.norm_step_max <= cfg.taylor_eps


def test_drifted_inverse_is_refreshed_once(ho_model, inverse_drift):
    # a 1e-10 Hermitian defect in Stilde and each carried G after the 40th
    # change moves a step's norm past taylor_eps: one refresh re-forms
    # both, and the generator ends as a fresh Stilde @ H
    from vngrid.hamiltonian import ReducedHamiltonian

    updates = inverse_drift(40, 1e-10)
    cells, c0 = _coherent_initial(ho_model)
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
    traj = tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                         (0.0, 20.0), cfg=cfg)
    changes = [t for t, k, _ in traj.events if k == "basis"]
    refreshes = [t for t, k, _ in traj.events if k == "refresh"]
    assert len(changes) == len(updates) > 40
    assert len(refreshes) == 1 and refreshes[0] >= changes[39]
    assert traj.norm_step_max > cfg.taylor_eps
    stilde = ReducedBasis.create(ho_model.product, traj.final_cells).Stilde
    fresh = ReducedHamiltonian(ho_model.spec, ho_model.product,
                               traj.final_cells).blocks
    assert len(traj.generator) == len(fresh)
    for g, h in zip(traj.generator, fresh):
        np.testing.assert_allclose(g, stilde @ h, rtol=0,
                                   atol=1e-12 * np.abs(stilde @ h).max())


def test_one_cell_change_per_basis_change(ho_model, monkeypatch):
    # the search and the propagator each derive one change record per basis
    # change, and every quantity carried across it reads that record
    import vngrid.dynamics as dynamics
    import vngrid.hamiltonian as hamiltonian
    import vngrid.reduced_space as reduced_space
    import vngrid.solvers as solvers

    calls = []
    real = reduced_space.cell_change

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (reduced_space, hamiltonian, solvers, dynamics):
        monkeypatch.setattr(module, "cell_change", counted, raising=False)
    res = tise_adaptive(ho_model.spec, ho_model.product, TiseConfig(zeta=1e-6))
    assert res.iterations > 2 and len(calls) == res.iterations - 1
    calls.clear()
    cells, c0 = _coherent_initial(ho_model)
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
    traj = tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                         (0.0, 5.0), cfg=cfg)
    events = sum(k == "basis" for _, k, _ in traj.events)
    assert events > 2 and len(calls) == events


# -- two-axis adaptation against the dense propagator ------------------------------

def test_kicked_helium_follows_dense_propagation(he_model, he_eigh):
    _kicked_helium_against_dense(he_model, he_eigh, folded=False)


def test_kicked_helium_follows_dense_propagation_folded(he_model, he_eigh):
    # the kick commutes with the swap of the electrons, so the folded run
    # stays in the symmetric sector and meets the same bounds
    _kicked_helium_against_dense(he_model, he_eigh, folded=True)


def _kicked_helium_against_dense(he_model, he_eigh, folded):
    # the helium ground state, kicked by exp(i k (x1 + x2)), drifts out of its
    # cell set; exp(-i H t) from one dense eigendecomposition of the 3600-point
    # grid is the reference at every snapshot
    w, v = he_eigh
    grid, pair, product = he_model.grids[0], he_model.pairs[0], he_model.product
    xc = grid.centered_points
    kicked = (v[:, 0].reshape(grid.N, grid.N)
              * np.exp(1.5j * (xc[:, None] + xc[None, :])))
    zeta = 1e-2
    coeffs = pair.G.conj().T @ kicked @ pair.G.conj()      # per-axis analysis
    cells = expand_cells(CellSet(np.argwhere(np.abs(coeffs) >= zeta)),
                         he_model.lattices)
    c0 = project_state(product, cells, kicked.ravel())
    c0 /= ReducedBasis.create(product, cells).physical_norm(c0)
    # the reference starts from exactly the reduced initial state
    a0 = v.T @ product.reconstruct(cells, c0)
    if folded:
        product = product.folded()
        reps = product.representatives(cells)
        assert product.lattice_cells(reps) == cells
        cells, c0 = reps, product.restrict(reps, c0)
    cfg = PropagationConfig(zeta=zeta, tau0=0.02, snapshot_every=5)
    traj = tdse_adaptive(he_model.spec, product, c0, cells, (0.0, 0.5),
                         cfg=cfg)
    assert sum(k == "basis" for _, k, _ in traj.events) >= 5
    checked = 0
    for snap in traj.snapshots[1:]:
        i = int(np.searchsorted(traj.times, snap.t))
        ref = v @ (np.exp(-1j * w * snap.t) * a0)
        red = product.reconstruct(snap.cells, snap.coefficients)
        deficit = 1.0 - abs(np.vdot(ref, red))
        drift = np.abs(traj.norms[:i + 1] - 1.0).max()
        lost = traj.discarded[i]     # through step i's basis change
        # the tolerance covers the Taylor tails (1e-12 per step) with room;
        # the norm moves only by the mass the basis changes discard
        assert drift <= lost + 1e-8
        assert abs(deficit) <= drift + lost + 1e-8
        checked += 1
    assert checked >= 3


def test_folded_driven_run_matches_unfolded(he_model):
    # from one exchange-symmetric ground set, the folded propagation takes
    # the same steps as the unfolded one, through basis changes
    spec, pulses, ground = _driven_helium(he_model)
    folded = he_model.product.folded()
    reps = folded.representatives(ground.final_cells)
    assert folded.lattice_cells(reps) == ground.final_cells
    cfg = PropagationConfig(zeta=1e-2, tau0=0.02, snapshot_every=0)
    plain = tdse_adaptive(spec, he_model.product, ground.eigenvectors[:, 0],
                          ground.final_cells, (0.0, 1.0), pulses=pulses,
                          cfg=cfg)
    fold = tdse_adaptive(spec, folded, folded.restrict(
        reps, ground.eigenvectors[:, 0]), reps, (0.0, 1.0), pulses=pulses,
        cfg=cfg)
    assert sum(k == "basis" for _, k, _ in plain.events) > 0
    np.testing.assert_array_equal(fold.times, plain.times)
    np.testing.assert_array_equal(fold.taus, plain.taus)
    np.testing.assert_array_equal(fold.n_active, plain.n_active)
    assert np.all(2 * fold.n_basis > fold.n_active)
    assert np.abs(fold.norms - plain.norms).max() <= 1e-12
    cells, coeffs = folded.unfold(fold.final_cells, fold.final_coefficients)
    assert cells == plain.final_cells
    assert np.abs(coeffs - plain.final_coefficients).max() <= 1e-10
