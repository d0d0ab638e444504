"""Block-diagonal LU, the reduced per-cell linear solve, and the modified
Newton engine with its caching and reduction discipline."""

import numpy as np
import pytest

from mrflow import newton
from mrflow.chemistry import IEG, IH, IH2, N_SPECIES, SurrogateNetwork
from mrflow.newton import (ConvergenceFailure, LinearSolveError,
                           NewtonEngine, block_lu_factor, block_lu_solve)
from mrflow.transport import run_spmd
from mrflow.vectors import ManyVector, ReductionLedger, error_weights


def test_block_lu_matches_dense_solve():
    rng = np.random.default_rng(12)
    blocks = rng.standard_normal((40, 7, 7)) + 7.0 * np.eye(7)
    rhs = rng.standard_normal((40, 7))
    expect = np.linalg.solve(blocks, rhs[..., None])[..., 0]
    lu = blocks.copy()
    piv = block_lu_factor(lu)
    got = block_lu_solve(lu, piv, rhs)
    err = np.abs(got - expect).max() / np.abs(expect).max()
    assert err <= 1e-12


def test_block_lu_pivoting_handles_zero_diagonal():
    blocks = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    piv = block_lu_factor(blocks)
    x = block_lu_solve(blocks, piv, np.array([[2.0, 3.0]]))
    np.testing.assert_allclose(x, [[3.0, 2.0]], rtol=1e-15)


def test_block_lu_returns_composed_row_permutation():
    # column 0 pivots on row 2, column 1 on the original row 0
    blocks = np.array([[[1.0, 2.0, 0.0], [0.0, 1.0, 5.0], [3.0, 1.0, 1.0]]])
    perm = block_lu_factor(blocks)
    np.testing.assert_array_equal(perm, [[2, 0, 1]])
    x = block_lu_solve(blocks, perm, np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(x, np.array([[11.0, 1.0, 5.0]]) / 13.0,
                               rtol=1e-15)


def test_block_lu_singular_names_cell():
    rng = np.random.default_rng(9)
    blocks = rng.standard_normal((5, 2, 2)) + 3.0 * np.eye(2)
    blocks[3] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(LinearSolveError, match=r"cell 3"):
        block_lu_factor(blocks)


def _state(shape, n_chem, comm=None, batched=True):
    n = int(np.prod(shape))
    arrays = [np.zeros(shape) for _ in range(5)] + [np.zeros(shape + (n_chem,))]
    size = comm.size if comm is not None else 1
    gl = [n * size] * 5 + [n * n_chem * size]
    return ManyVector(arrays, global_lengths=gl, comm=comm,
                      batched_reductions=batched)


# a linear stiff term acting on two chemistry slots; exact Jacobian
LIN_PATTERN = ((5, 5), (6, 6), (6, 5))


def _linear_f(t, v):
    out = v.clone_empty()
    for a in out.arrays[:5]:
        a.fill(0.0)
    chem = v.arrays[5]
    oc = out.arrays[5]
    oc.fill(0.0)
    oc[..., 0] = -2.0 * chem[..., 0]
    oc[..., 1] = chem[..., 0] - 3.0 * chem[..., 1]
    return out


def _linear_jac(t, v):
    shape = v.arrays[0].shape
    cols = [np.full(shape, -2.0), np.full(shape, -3.0), np.full(shape, 1.0)]
    return np.stack(cols, axis=-1)


def _linear_setup(comm=None, batched=True, hg=1e-8):
    shape, nc = (4, 2, 2), 2
    z = _state(shape, nc, comm, batched)
    rng = np.random.default_rng(77)
    z.arrays[5][...] = rng.uniform(0.5, 2.0, shape + (nc,))
    a = z.copy()
    weights = error_weights(z, 1e-5, 1e-9)
    eng = NewtonEngine(_linear_jac, LIN_PATTERN, nb=5 + nc,
                       n_cells=int(np.prod(shape)))
    return eng, z, a, weights, hg


def test_linear_problem_converges_in_one_iteration():
    eng, z, a, weights, hg = _linear_setup()
    iters = eng.solve(_linear_f, 0.0, z, a, hg, weights)
    assert iters == 1
    assert eng.stats.iterations == 1
    # stage equation z - hg f(z) - a = 0 holds to roundoff
    f = _linear_f(0.0, z)
    resid = z.arrays[5] - hg * f.arrays[5] - a.arrays[5]
    assert np.abs(resid).max() <= 1e-15


def _ledger_worker(comm, batched):
    ledger = ReductionLedger()
    comm.ledger = ledger
    eng, z, a, weights, hg = _linear_setup(comm, batched)
    iters = eng.solve(_linear_f, 0.0, z, a, hg, weights)
    p2p = comm.counters.snapshot()
    return iters, ledger.global_reduction_count, p2p


@pytest.mark.parametrize("batched", [True, False])
def test_one_reduction_round_per_iteration(batched):
    # the convergence norm is wrms_norm: one round per iteration when
    # batched, one per subvector (6 here) when not
    for iters, rounds, _ in run_spmd(2, _ledger_worker, batched):
        assert iters == 1
        assert rounds == (1 if batched else 6)


def test_linear_solve_no_communication():
    # the factor/solve path never touches a communicator: counters advance
    # only by the allreduce in the convergence norm (1 per iteration)
    for rank, (iters, rounds, (sends, recvs, _)) in enumerate(
            run_spmd(2, _ledger_worker, True)):
        assert (sends, recvs) == (iters, iters)


def _blocks(v) -> np.ndarray:
    """Cell-major (n_cells, 5 + n_c) copy of a fluid+chemistry vector."""
    chem = v.arrays[5]
    return np.concatenate([a.reshape(-1, 1) for a in v.arrays[:5]]
                          + [chem.reshape(-1, chem.shape[-1])], axis=1)


def _one_update(pattern, nb, vals, hg, seed=21):
    """The first Newton update from z = 0 (so z ends equal to it), with a
    constant right-hand side and Jacobian values `vals` (n_cells, nnz)."""
    shape = (3, 2, 1)
    rng = np.random.default_rng(seed)
    z = _state(shape, nb - 5)
    a, forcing = z.copy(), z.copy()
    for x in a.arrays + forcing.arrays:
        x[...] = rng.standard_normal(x.shape)
    eng = NewtonEngine(lambda t, v: vals.reshape(shape + (len(pattern),)),
                       pattern, nb=nb, n_cells=int(np.prod(shape)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "DEFAULT_CONV_COEF", np.inf)
        eng.solve(lambda t, v: forcing.copy(), 0.0, z, a, hg,
                  error_weights(a, 1e-5, 1e-9))
    return _blocks(z), -hg * _blocks(forcing) - _blocks(a)


def _dense_update(pattern, nb, vals, hg, resid):
    """np.linalg.solve on the full (5 + n_c)^2 matrix I - hg*J."""
    mat = np.tile(np.eye(nb), (len(vals), 1, 1))
    for k, (r, c) in enumerate(pattern):
        mat[:, r, c] -= hg * vals[:, k]
    return np.linalg.solve(mat, -resid[..., None])[..., 0]


def _random_pattern(nb, seed):
    rng = np.random.default_rng(seed)
    rows = sorted(int(r) for r in rng.choice(nb, 4, replace=False))
    pattern = [(r, c) for r in rows for c in rows if rng.random() < 0.6]
    known = next(c for c in range(nb) if c not in rows)
    return tuple(pattern) + ((rows[1], known), (rows[3], known))


@pytest.mark.parametrize("pattern, nb", [
    (SurrogateNetwork.PATTERN, 5 + N_SPECIES),
    (LIN_PATTERN, 7),
    (_random_pattern(11, 8), 11),
], ids=["surrogate", "linear", "random"])
def test_update_matches_dense_solve(pattern, nb):
    vals = np.random.default_rng(nb).standard_normal((6, len(pattern)))
    got, resid = _one_update(pattern, nb, vals, 0.3)
    expect = _dense_update(pattern, nb, vals, 0.3, resid)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_duplicate_pattern_entries_accumulate():
    # two entries on one block slot and two on one known-column slot
    dup = ((5, 6), (5, 6), (6, 0), (6, 0), (6, 6))
    merged = ((5, 6), (6, 0), (6, 6))
    vals = np.tile([3.0, 4.0, 1.5, 2.5, -2.0], (6, 1))
    got, resid = _one_update(dup, 7, vals, 1.0)
    want, _ = _one_update(merged, 7, np.tile([7.0, 4.0, -2.0], (6, 1)), 1.0)
    np.testing.assert_array_equal(got, want)
    expect = _dense_update(dup, 7, vals, 1.0, resid)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("entry", [(0, 7), (7, 0), (-1, 5), (5, -1)],
                         ids=["col-high", "row-high", "row-low", "col-low"])
def test_pattern_outside_block_rejected(entry):
    with pytest.raises(ValueError, match="outside block"):
        NewtonEngine(lambda t, v: None, ((5, 5), entry), nb=7, n_cells=1)


def test_singular_block_names_cell_and_field():
    # J = 1 at hg = 1 makes the 1x1 block of cell 1 exactly zero
    shape = (3, 1, 1)
    z = _state(shape, 1)
    jac = np.array([0.5, 1.0, 0.5]).reshape(shape + (1,))
    eng = NewtonEngine(lambda t, v: jac, ((5, 5),), nb=6, n_cells=3)
    with pytest.raises(LinearSolveError,
                       match=r"local cell 1: zero pivot for field H$") as info:
        eng.solve(lambda t, v: v.copy(), 0.0, z, z.copy(), 1.0,
                  error_weights(z, 1e-5, 1e-9))
    assert (info.value.cell, info.value.column) == (1, 5)


def _network_setup(hg):
    net = SurrogateNetwork(k1=1e2, k2=1e4, q=1e-2, e_ref=1.0)
    shape = (2, 2, 1)
    z = _state(shape, N_SPECIES)
    rng = np.random.default_rng(5)
    z.arrays[0][...] = rng.uniform(0.5, 2.0, shape)
    z.arrays[5][..., IH] = rng.uniform(0.5, 1.5, shape)
    z.arrays[5][..., IH2] = rng.uniform(0.1, 0.5, shape)
    z.arrays[5][..., IEG] = rng.uniform(0.5, 1.5, shape)

    def f(t, v):
        out = v.clone_empty()
        for arr in out.arrays[:5]:
            arr.fill(0.0)
        out.arrays[5][...] = net.rhs(v.arrays[0], v.arrays[5])
        return out

    jac = lambda t, v: net.jacobian_values(v.arrays[0], v.arrays[5])
    eng = NewtonEngine(jac, SurrogateNetwork.PATTERN, nb=5 + N_SPECIES,
                       n_cells=int(np.prod(shape)))
    a = z.copy()
    weights = error_weights(z, 1e-8, 1e-12)
    return eng, f, z, a, weights, hg


def test_modified_newton_reuses_jacobian_and_factors():
    eng, f, z, a, weights, hg = _network_setup(1e-6)
    eng.solve(f, 0.0, z, a, hg, weights)
    assert eng.stats.jac_evals == 1
    assert eng.stats.factorizations == 1
    # second stage, same hg: reuse both
    z2 = a.copy()
    eng.solve(f, 0.0, z2, a, hg, weights)
    assert eng.stats.jac_evals == 1
    assert eng.stats.factorizations == 1
    # hg change: refactor without re-evaluating the Jacobian
    z3 = a.copy()
    eng.solve(f, 0.0, z3, a, hg / 2.0, weights)
    assert eng.stats.jac_evals == 1
    assert eng.stats.factorizations == 2
    # reset forces a full rebuild
    eng.reset()
    z4 = a.copy()
    eng.solve(f, 0.0, z4, a, hg, weights)
    assert eng.stats.jac_evals == 2
    assert eng.stats.factorizations == 3
    assert eng.stats.solves == eng.stats.iterations


def test_newton_nonlinear_converges_and_satisfies_stage_equation():
    eng, f, z, a, weights, hg = _network_setup(2e-3)
    iters = eng.solve(f, 0.0, z, a, hg, weights)
    assert 1 <= iters <= 10
    # converged to ~0.01 WRMS units at rtol=1e-8: residual O(1e-9) absolute
    resid = z.arrays[5] - hg * f(0.0, z).arrays[5] - a.arrays[5]
    assert np.abs(resid).max() <= 5e-9


def test_divergence_raises_with_freshness_flag():
    # Jacobian with the wrong sign at hg=1 sends the iteration away
    def wrong_jac(t, v):
        shape = v.arrays[0].shape
        return np.stack([np.full(shape, 50.0)], axis=-1)

    def f(t, v):
        out = v.clone_empty()
        for arr in out.arrays[:5]:
            arr.fill(0.0)
        out.arrays[5][...] = -50.0 * v.arrays[5]
        return out

    shape = (2, 1, 1)
    z = _state(shape, 1)
    z.arrays[5][...] = 1.0
    a = z.copy()
    a.arrays[5][...] = 0.5
    eng = NewtonEngine(wrong_jac, ((5, 5),), nb=6,
                       n_cells=int(np.prod(shape)))
    weights = error_weights(z, 1e-5, 1e-9)
    with pytest.raises(ConvergenceFailure) as info:
        eng.solve(f, 0.0, z, a, 1.0, weights)
    assert info.value.jac_was_fresh
    assert eng.stats.failures == 1
    # cache was dropped: the next call re-evaluates
    assert eng._jac_values is None


def test_non_finite_update_norm_fails_at_once():
    def nan_rhs(t, v):
        out = v.clone_empty()
        out.fill(np.nan)
        return out

    shape = (2, 1, 1)
    z = _state(shape, 1)
    eng = NewtonEngine(lambda t, v: np.zeros(v.arrays[0].shape + (1,)),
                       ((5, 5),), nb=6, n_cells=int(np.prod(shape)))
    with pytest.raises(ConvergenceFailure, match="after 1 iterations"):
        eng.solve(nan_rhs, 0.0, z, z.copy(), 0.5, error_weights(z, 1e-5, 1e-9))
    assert (eng.stats.iterations, eng.stats.failures) == (1, 1)
