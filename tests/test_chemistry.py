"""Units, primordial-gas initial conditions, energy bookkeeping, and the
surrogate reaction network."""

import math

import numpy as np
import pytest

from mrflow.chemistry import (EnergyBookkeeping, IE, IEG, IH, IH2, IHE, IHEP,
                              IHEPP, IHM, IHP, IH2P, K_BOLTZMANN, N_SPECIES,
                              NUMBER_PREFACTOR, RHO_BACKGROUND, SPECIES,
                              SurrogateNetwork, T_BACKGROUND, UnitSystem,
                              W_H, W_H2, W_HE, clump_table, density_field,
                              gas_energy_from_fluid, nondimensionalize,
                              species_init, sync_gas_energy, temperature_field)
from mrflow.mesh import UniformGrid
from mrflow.vectors import ManyVector

UNITS = UnitSystem()
GRID = UniformGrid((16, 16, 16), ((0.0, 1.0),) * 3)
FULL = ((0, 16), (0, 16), (0, 16))


def test_species_layout():
    assert SPECIES == ("H", "H+", "H-", "H2", "H2+", "He", "He+", "He++",
                       "e-", "e_g")
    assert N_SPECIES == 10 and IEG == 9


def test_derived_units_four_significant_figures():
    assert UNITS.density == pytest.approx(1.0211e-21, rel=5e-5)
    assert UNITS.momentum_density == pytest.approx(3.1507e-2, rel=5e-5)
    assert UNITS.energy_density == pytest.approx(9.7223e17, rel=5e-5)


def test_derived_units_dimensional_identities():
    assert UNITS.density == UNITS.mass / UNITS.length ** 3
    assert UNITS.velocity == UNITS.length / UNITS.time
    assert UNITS.momentum_density == UNITS.density * UNITS.velocity
    assert UNITS.energy_density == UNITS.density * UNITS.velocity ** 2
    assert UNITS.specific_energy == UNITS.velocity ** 2


def test_nondimensionalize_round_trip():
    rng = np.random.default_rng(1)
    rho = RHO_BACKGROUND * rng.uniform(1.0, 6.0, (4, 4, 4))
    m = [1e-20 * rng.standard_normal((4, 4, 4)) for _ in range(3)]
    et = 1e-10 * rng.uniform(1.0, 2.0, (4, 4, 4))
    chem = rng.uniform(1e-30, 1e-20, (4, 4, 4, N_SPECIES))
    chem[..., IEG] = rng.uniform(1e8, 1e10, (4, 4, 4))
    rho_n, m_n, et_n, chem_n = nondimensionalize(UNITS, rho, m, et, chem)
    chem_n[..., :IE + 1] *= UNITS.density
    chem_n[..., IEG] *= UNITS.specific_energy
    back = (rho_n * UNITS.density,
            *[mi * UNITS.momentum_density for mi in m_n],
            et_n * UNITS.energy_density, chem_n)
    for orig, rt in zip((rho, *m, et, chem), back):
        assert np.all(np.abs(rt - orig) <= 2 * np.spacing(np.abs(orig)))


def test_nondimensionalize_scales():
    rho = np.array([UNITS.density])
    chem = np.zeros((1, N_SPECIES))
    chem[0, IH] = UNITS.density
    chem[0, IEG] = UNITS.specific_energy
    rho_n, m_n, et_n, chem_n = nondimensionalize(
        UNITS, rho, [rho, rho, rho], np.array([UNITS.energy_density]), chem)
    assert rho_n[0] == 1.0
    assert et_n[0] == 1.0
    assert chem_n[0, IH] == 1.0
    assert chem_n[0, IEG] == 1.0


def test_clump_table_deterministic():
    a = clump_table(1234, 20, GRID)
    b = clump_table(1234, 20, GRID)
    np.testing.assert_array_equal(a, b)
    c = clump_table(1235, 20, GRID)
    assert np.any(a != c)


def test_clump_table_ranges():
    t = clump_table(99, 200, GRID)
    assert t.shape == (200, 5)
    dx = GRID.spacing[0]
    assert np.all((t[:, :3] >= 0.0) & (t[:, :3] <= 1.0))
    assert np.all((t[:, 3] >= 0.0) & (t[:, 3] < 5.0))
    assert np.all((t[:, 4] >= 3.0 * dx) & (t[:, 4] < 6.0 * dx))


def test_density_field_structure():
    none = np.empty((0, 5))
    rho = density_field(GRID, FULL, none)
    # corner cell sits far from the central blob
    assert rho[0, 0, 0] == pytest.approx(RHO_BACKGROUND, rel=1e-3)
    center = rho[8, 8, 8]
    # center of a 16^3 grid is half a cell off the true peak
    assert center == pytest.approx(6.0 * RHO_BACKGROUND, rel=0.05)
    assert rho.max() <= 6.0 * RHO_BACKGROUND


def test_density_field_clump_adds_mass():
    clump = np.array([[0.25, 0.25, 0.25, 3.0, 5.0 * GRID.spacing[0]]])
    base = density_field(GRID, FULL, np.empty((0, 5)))
    with_clump = density_field(GRID, FULL, clump)
    assert np.all(with_clump >= base)
    assert with_clump[4, 4, 4] > 2.0 * base[4, 4, 4]


def test_temperature_field_values():
    T = temperature_field(GRID, FULL)
    assert T[0, 0, 0] == pytest.approx(T_BACKGROUND, rel=1e-3)
    assert T[8, 8, 8] == pytest.approx(6.0 * T_BACKGROUND, rel=0.05)
    # monotone decay along a ray from the center
    line = T[8:, 8, 8]
    assert np.all(np.diff(line) < 0)


def _ic_fields():
    clumps = clump_table(8675309, 10, GRID)
    rho = density_field(GRID, FULL, clumps)
    return rho, temperature_field(GRID, FULL)


def test_species_init_telescoping_closure():
    rho, T = _ic_fields()
    chem = species_init(rho, T)
    trace = 1e-40 * rho
    h2 = 1e-12 * rho
    he = 0.24 * rho - trace - trace
    others = ((((trace + trace) + trace) + trace + trace) + h2) + he
    np.testing.assert_array_equal(chem[..., IH], rho - others)


def test_species_init_mass_closure_within_one_ulp():
    rho, T = _ic_fields()
    chem = species_init(rho, T)
    flat = chem.reshape(-1, N_SPECIES)
    flat_rho = rho.ravel()
    for i in range(0, flat.shape[0], 7):
        s = math.fsum(flat[i, :8])
        assert abs(s - flat_rho[i]) <= np.spacing(flat_rho[i])


def test_species_init_fractions():
    rho, T = _ic_fields()
    chem = species_init(rho, T)
    np.testing.assert_allclose(chem[..., IH2], 1e-12 * rho, rtol=1e-15)
    np.testing.assert_allclose(chem[..., IHE], 0.24 * rho, rtol=1e-12)
    for slot in (IHP, IHM, IH2P, IHEP, IHEPP):
        np.testing.assert_allclose(chem[..., slot], 1e-40 * rho, rtol=1e-15)


def test_species_init_electron_density():
    rho, T = _ic_fields()
    chem = species_init(rho, T)
    expect = (chem[..., IHP] / W_H - chem[..., IHM] / W_H
              + chem[..., IH2P] / W_H2 + chem[..., IHEP] / W_HE
              + 2.0 * chem[..., IHEPP] / W_HE)
    np.testing.assert_allclose(chem[..., IE], expect, rtol=1e-14)
    assert np.all(chem[..., IE] > 0)
    assert np.all(chem[..., IE] < 1e-38 * rho)


def test_species_init_gas_energy_hand_value():
    rho = np.array([2.0e-22])
    T = np.array([10.0])
    chem = species_init(rho, T, gamma=5.0 / 3.0)
    weights = {IH: W_H, IHP: W_H, IHM: W_H, IH2: W_H2, IH2P: W_H2,
               IHE: W_HE, IHEP: W_HE, IHEPP: W_HE}
    n = NUMBER_PREFACTOR * sum(chem[0, s] / w for s, w in weights.items())
    expect = K_BOLTZMANN * 10.0 * n / (rho[0] * (2.0 / 3.0))
    assert chem[0, IEG] == pytest.approx(expect, rel=1e-14)


def test_species_init_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        species_init(np.array([1.0, 0.0]), np.array([10.0, 10.0]))


def _fluid_state():
    shape = (3, 3, 3)
    rho = np.full(shape, 2.0)
    mx = np.full(shape, 1.0)
    my = np.zeros(shape)
    mz = np.zeros(shape)
    et = np.full(shape, 5.0)
    chem = np.zeros(shape + (N_SPECIES,))
    return ManyVector([rho, mx, my, mz, et, chem])


def test_sync_gas_energy():
    state = _fluid_state()
    sync_gas_energy(state)
    # (et - m^2/(2 rho)) / rho = (5 - 0.25) / 2
    assert np.all(state.arrays[5][..., IEG] == 2.375)
    assert gas_energy_from_fluid(2.0, 1.0, 0.0, 0.0, 5.0) == 2.375


def test_energy_bookkeeping_moves_heating_into_fluid():
    state = _fluid_state()
    forcing = state.clone_empty().fill(0.0)
    forcing.arrays[5][..., IEG] = 0.5   # slow tendency of e_g
    hooks = EnergyBookkeeping()
    hooks.prepare(state, forcing)
    assert np.all(state.arrays[5][..., IEG] == 2.375)
    # fast solve: e_g picks up forcing (0.5 * 0.1) plus 0.02 of reaction heat
    state.arrays[5][..., IEG] += 0.05 + 0.02
    hooks.finalize(state, forcing, 0.1)
    np.testing.assert_allclose(state.arrays[4], 5.0 + 2.0 * 0.02, rtol=1e-14)
    np.testing.assert_allclose(state.arrays[5][..., IEG],
                               (5.04 - 0.25) / 2.0, rtol=1e-14)


def test_energy_bookkeeping_no_reactions_is_roundoff():
    state = _fluid_state()
    forcing = state.clone_empty().fill(0.0)
    hooks = EnergyBookkeeping()
    et_before = state.arrays[4].copy()
    hooks.prepare(state, forcing)
    hooks.finalize(state, forcing, 0.37)
    np.testing.assert_array_equal(state.arrays[4], et_before)


# ---------------------------------------------------------------------------
# surrogate network

NET = SurrogateNetwork(k1=1e2, k2=1e4, q=1e-2, e_ref=1.3)


def _chem_state(h, h2, eg):
    chem = np.zeros(N_SPECIES)
    chem[IH], chem[IH2], chem[IEG] = h, h2, eg
    return chem


def test_network_equilibrium():
    # k1 H^2 = k2 H2 theta with theta = eg/e_ref
    h, eg = 1.0, 1.3
    h2 = NET.k1 * h * h / (NET.k2 * eg / NET.e_ref)
    out = NET.rhs(1.0, _chem_state(h, h2, eg))
    np.testing.assert_allclose(out, np.zeros(N_SPECIES), atol=1e-18)


def test_network_sign_structure():
    out = NET.rhs(1.0, _chem_state(0.0, 1.0, 1.0))
    assert out[IH] > 0 and out[IH2] < 0
    out = NET.rhs(1.0, _chem_state(1.0, 0.0, 1.0))
    assert out[IH] < 0 and out[IH2] > 0


def test_network_mass_conservation_is_bitwise():
    rng = np.random.default_rng(6)
    chem = np.zeros((50, N_SPECIES))
    chem[:, IH] = rng.uniform(0, 2, 50)
    chem[:, IH2] = rng.uniform(0, 2, 50)
    chem[:, IEG] = rng.uniform(0.1, 3, 50)
    out = NET.rhs(rng.uniform(0.5, 2, 50), chem)
    np.testing.assert_array_equal(out[:, IH] + 2.0 * out[:, IH2],
                                  np.zeros(50))
    assert np.all(out[:, [IHP, IHM, IH2P, IHE, IHEP, IHEPP, IE]] == 0.0)


def test_network_pattern_shape():
    rows = {r for r, _ in SurrogateNetwork.PATTERN}
    assert rows == {5 + IH, 5 + IH2, 5 + IEG}
    assert (5 + IEG, 0) in SurrogateNetwork.PATTERN  # density feedback
    assert len(SurrogateNetwork.PATTERN) == 10


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        y = rng.uniform(0.2, 2.0, 3)
        rho = rng.uniform(0.5, 2.0)
        f, jac = NET.single_cell_ode(rho)
        J = jac(0.0, y)
        for j in range(3):
            h = 1e-7 * max(1.0, abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd = (f(0.0, yp) - f(0.0, ym)) / (2 * h)
            scale = np.maximum(np.abs(J[:, j]), 1e-30)
            worst = max(worst, float(np.max(np.abs(fd - J[:, j]) / scale)))
    assert worst <= 1e-6


def test_jacobian_density_column():
    # d(de_g/dt)/d(rho) = -q net / rho^2, checked by differencing in rho
    y = np.array([1.1, 0.4, 0.9])
    chem = _chem_state(*y)
    rho = 1.7
    vals = NET.jacobian_values(rho, chem)
    h = 1e-7
    d_fd = (NET.rhs(rho + h, chem)[IEG] - NET.rhs(rho - h, chem)[IEG]) / (2 * h)
    idx = SurrogateNetwork.PATTERN.index((5 + IEG, 0))
    assert vals[idx] == pytest.approx(d_fd, rel=1e-7)


def test_network_vectorized_matches_single_cell():
    rng = np.random.default_rng(23)
    chem = np.zeros((4, N_SPECIES))
    chem[:, IH] = rng.uniform(0.1, 2, 4)
    chem[:, IH2] = rng.uniform(0.1, 2, 4)
    chem[:, IEG] = rng.uniform(0.1, 2, 4)
    rho = rng.uniform(0.5, 2, 4)
    out = NET.rhs(rho, chem)
    f, _ = NET.single_cell_ode(rho[2])
    np.testing.assert_array_equal(
        f(0.0, chem[2, [IH, IH2, IEG]]),
        out[2, [IH, IH2, IEG]])


def test_reactions_off_is_identically_zero():
    dead = SurrogateNetwork(0.0, 0.0, 0.0, 1.0)
    chem = _chem_state(1.0, 2.0, 3.0)
    assert np.all(dead.rhs(1.0, chem) == 0.0)
    assert np.all(dead.jacobian_values(1.0, chem) == 0.0)
