"""Block-diagonal LU, the dense per-cell linear solve, and the modified
Newton engine with its caching and reduction discipline."""

import itertools

import numpy as np
import pytest

from mrflow import newton
from mrflow.chemistry import FAST_SLOTS, SurrogateNetwork
from mrflow.harness import reaction_problem
from mrflow.newton import (ConvergenceFailure, LinearSolveError,
                           NewtonEngine, block_lu_factor, block_lu_solve)
from mrflow.profiling import Profile
from mrflow.transport import run_spmd
from mrflow.vectors import ManyVector, ReductionLedger, error_weights

from cell_ode import scalar_newton


def test_block_lu_matches_dense_solve():
    rng = np.random.default_rng(12)
    blocks = rng.standard_normal((40, 7, 7)) + 7.0 * np.eye(7)
    rhs = rng.standard_normal((40, 7))
    expect = np.linalg.solve(blocks, rhs[..., None])[..., 0]
    lu = blocks.transpose(1, 2, 0).copy()
    piv = block_lu_factor(lu)
    got = block_lu_solve(lu, piv, rhs.T.copy())
    err = np.abs(got.T - expect).max() / np.abs(expect).max()
    assert err <= 1e-12


def test_block_lu_pivoting_handles_zero_diagonal():
    blocks = np.array([[[0.0, 1.0], [1.0, 0.0]]]).transpose(1, 2, 0).copy()
    piv = block_lu_factor(blocks)
    x = block_lu_solve(blocks, piv, np.array([[2.0, 3.0]]).T.copy())
    np.testing.assert_allclose(x.T, [[3.0, 2.0]], rtol=1e-15)


def test_block_lu_returns_composed_row_permutation():
    # column 0 pivots on row 2, column 1 on the original row 0
    blocks = np.array([[[1.0, 2.0, 0.0], [0.0, 1.0, 5.0], [3.0, 1.0, 1.0]]])
    blocks = blocks.transpose(1, 2, 0).copy()
    perm = block_lu_factor(blocks)
    np.testing.assert_array_equal(perm.T, [[2, 0, 1]])  # one cell
    x = block_lu_solve(blocks, perm, np.array([[1.0, 2.0, 3.0]]).T.copy())
    np.testing.assert_allclose(x.T, np.array([[11.0, 1.0, 5.0]]) / 13.0,
                               rtol=1e-15)


def test_block_lu_singular_names_cell():
    rng = np.random.default_rng(9)
    blocks = rng.standard_normal((5, 2, 2)) + 3.0 * np.eye(2)
    blocks[3] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(LinearSolveError, match=r"cell 3"):
        block_lu_factor(blocks.transpose(1, 2, 0).copy())


# The (cells, m, m) kernels the cell-innermost ones replaced, kept as the
# bitwise oracle: the same pivots, factors and rounding, row by row.
def _rowwise_factor(blocks):
    n_cells, nb, _ = blocks.shape
    perm = np.tile(np.arange(nb), (n_cells, 1))
    cells = np.arange(n_cells)
    for k in range(nb):
        p = k + np.abs(blocks[:, k:, k]).argmax(axis=1)
        row, slot = blocks[:, k, :].copy(), perm[:, k].copy()
        blocks[:, k, :], perm[:, k] = blocks[cells, p, :], perm[cells, p]
        blocks[cells, p, :], perm[cells, p] = row, slot
        blocks[:, k + 1:, k] /= blocks[:, k:k + 1, k]
        blocks[:, k + 1:, k + 1:] -= (blocks[:, k + 1:, k:k + 1]
                                      * blocks[:, k:k + 1, k + 1:])
    return perm


def _rowwise_solve(blocks, perm, rhs):
    nb = blocks.shape[1]
    x = np.take_along_axis(rhs, perm, axis=1)
    for i in range(1, nb):
        x[:, i] -= (blocks[:, i, :i] * x[:, :i]).sum(axis=1)
    for i in range(nb - 1, -1, -1):
        x[:, i] -= (blocks[:, i, i + 1:] * x[:, i + 1:]).sum(axis=1)
        x[:, i] /= blocks[:, i, i]
    return x


@pytest.mark.parametrize("n_cells, nb", [(4096, 3), (48, 7)])
def test_block_lu_bitwise_equal_to_rowwise_oracle(n_cells, nb):
    rng = np.random.default_rng(31 + nb)
    blocks = rng.standard_normal((n_cells, nb, nb))
    # a dominant diagonal in half the cells: no pivoting there
    dominant = rng.random(n_cells) < 0.5
    blocks[dominant] += 3.0 * nb * np.eye(nb)
    rhs = rng.standard_normal((n_cells, nb))
    lu_old = blocks.copy()
    perm_old = _rowwise_factor(lu_old)
    x_old = _rowwise_solve(lu_old, perm_old, rhs)
    assert (perm_old[~dominant] != np.arange(nb)).any(axis=1).mean() > 0.5
    assert (perm_old[dominant] == np.arange(nb)).all()

    lu = blocks.transpose(1, 2, 0).copy()
    perm = block_lu_factor(lu)
    x = block_lu_solve(lu, perm, rhs.T.copy())
    assert np.array_equal(lu, lu_old.transpose(1, 2, 0))
    assert np.array_equal(perm // n_cells, perm_old.T)
    assert np.array_equal(x, x_old.T)


def test_block_lu_mixed_pivoting_across_cells():
    # each cell is a row permutation s of a column-dominant block D, which
    # needs no pivoting, so the factorization must undo s: perm = s^-1
    rng = np.random.default_rng(8)
    orders = list(itertools.permutations(range(3)))
    n_cells = 4 * len(orders)
    dom = rng.uniform(-1.0, 1.0, (n_cells, 3, 3)) + 5.0 * np.eye(3)
    s = np.array([orders[c % len(orders)] for c in range(n_cells)])
    blocks = np.take_along_axis(dom, s[:, :, None], axis=1)
    rhs = rng.standard_normal((n_cells, 3))
    lu = blocks.transpose(1, 2, 0).copy()
    perm = block_lu_factor(lu)
    rows = perm // n_cells
    for c in range(n_cells):
        np.testing.assert_array_equal(rows[:, c], np.argsort(s[c]))
    assert (rows == np.arange(3)[:, None]).all(axis=0).sum() == 4  # no swap
    x = block_lu_solve(lu, perm, rhs.T.copy())
    expect = np.linalg.solve(blocks, rhs[..., None])[..., 0]
    assert np.abs(x.T - expect).max() / np.abs(expect).max() <= 1e-14

    blocks[5] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
    with pytest.raises(LinearSolveError,
                       match=r"singular 3x3 block in cell 5 \(pivot column 1\)"
                       ) as info:
        block_lu_factor(blocks.transpose(1, 2, 0).copy())
    assert (info.value.cell, info.value.column) == (5, 1)


def _vector(shape, m, comm=None, batched=True):
    """A zero block of m fields on the given cell shape."""
    size = comm.size if comm is not None else 1
    return ManyVector([np.zeros((m,) + shape)],
                      global_length=int(np.prod(shape)) * m * size, comm=comm,
                      batched_reductions=batched)


# a linear stiff term on two fields: x' = -2x, y' = x - 3y; exact Jacobian
LIN_JAC = np.array([[-2.0, 0.0], [1.0, -3.0]])


def _linear_f(t, v):
    x, y = v.arrays[0]
    return ManyVector([np.stack([-2.0 * x, x - 3.0 * y])], v.global_length,
                      v.comm, v.batched_reductions)


def _linear_jac(t, v):
    return np.multiply.outer(LIN_JAC, np.ones(v.arrays[0].shape[1:]))


def _linear_setup(comm=None, batched=True, hg=1e-8):
    shape = (4, 2, 2)
    z = _vector(shape, 2, comm, batched)
    rng = np.random.default_rng(77)
    for x in z.arrays[0]:
        x[...] = rng.uniform(0.5, 2.0, shape)
    a = z.copy()
    weights = error_weights(z, 1e-5, 1e-9)
    eng = NewtonEngine(_linear_jac, ("x", "y"))
    return eng, z, a, weights, hg


def test_linear_problem_converges_in_one_iteration():
    eng, z, a, weights, hg = _linear_setup()
    iters = eng.solve(_linear_f, 0.0, z, a, hg, weights)
    assert iters == 1
    assert eng.stats.iterations == 1
    # stage equation z - hg f(z) - a = 0 holds to roundoff
    f = _linear_f(0.0, z)
    for zz, ff, aa in zip(z.arrays[0], f.arrays[0], a.arrays[0]):
        assert np.abs(zz - hg * ff - aa).max() <= 1e-15


def _ledger_worker(comm, batched):
    ledger = ReductionLedger()
    comm.ledger = ledger
    eng, z, a, weights, hg = _linear_setup(comm, batched)
    iters = eng.solve(_linear_f, 0.0, z, a, hg, weights)
    p2p = comm.counters.snapshot()
    return iters, ledger.global_reduction_count, p2p


@pytest.mark.parametrize("batched", [True, False])
def test_one_reduction_round_per_iteration(batched):
    # a direct call checks each iteration's norm in its own rounds: one
    # round when batched, one per field of the block (2 here) when not
    for iters, rounds, _ in run_spmd(2, _ledger_worker, batched):
        assert iters == 1
        assert rounds == (1 if batched else 2)


def test_linear_solve_no_communication():
    # the factor/solve path never touches a communicator: counters advance
    # only by the allreduce in the convergence norm (1 per iteration)
    for rank, (iters, rounds, (sends, recvs, _)) in enumerate(
            run_spmd(2, _ledger_worker, True)):
        assert (sends, recvs) == (iters, iters)


def _one_update(jac, hg, seed=21):
    """The first Newton update from z = 0 (so z ends equal to it), with a
    constant right-hand side and Jacobian `jac` (m, m) + cell shape;
    returns it and the residual, each (m, n_cells)."""
    m, shape = jac.shape[0], jac.shape[2:]
    rng = np.random.default_rng(seed)
    z = _vector(shape, m)
    a, forcing = z.copy(), z.copy()
    for x in [*a.arrays[0], *forcing.arrays[0]]:
        x[...] = rng.standard_normal(x.shape)
    eng = NewtonEngine(lambda t, v: jac, [f"z{r}" for r in range(m)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "DEFAULT_CONV_COEF", np.inf)
        eng.solve(lambda t, v: forcing.copy(), 0.0, z, a, hg,
                  error_weights(a, 1e-5, 1e-9))

    def rows(v):
        return v.arrays[0].reshape(m, -1)

    return rows(z), -hg * rows(forcing) - rows(a)


@pytest.mark.parametrize("m, zero_rows", [
    (3, ()), (7, (1, 4)),
    (15, tuple(r for r in range(15) if r - 5 not in FAST_SLOTS)),
], ids=["dense", "random", "surrogate"])
def test_update_matches_dense_solve(m, zero_rows):
    # random dense blocks; the 15 x 15 case has the network's rows on the
    # fluid + chemistry state, all others zero
    shape = (3, 2, 1)
    jac = np.random.default_rng(m).standard_normal((m, m) + shape)
    jac[list(zero_rows)] = 0.0
    got, resid = _one_update(jac, 0.3)
    mat = np.eye(m) - 0.3 * jac.reshape(m, m, -1).transpose(2, 0, 1)
    expect = np.linalg.solve(mat, -resid.T[..., None])[..., 0].T
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_singular_block_names_cell_and_field():
    # J = 1 at hg = 1 makes the 1x1 block of cell 1 exactly zero
    shape = (3, 1, 1)
    z = _vector(shape, 1)
    jac = np.array([0.5, 1.0, 0.5]).reshape((1, 1) + shape)
    eng = NewtonEngine(lambda t, v: jac, ("H",))
    with pytest.raises(LinearSolveError,
                       match=r"local cell 1: zero pivot for field H$") as info:
        eng.solve(lambda t, v: v.copy(), 0.0, z, z.copy(), 1.0,
                  error_weights(z, 1e-5, 1e-9))
    assert (info.value.cell, info.value.column) == (1, 0)


def _network_setup(hg):
    """The network on its own three fields, as the harness solves it."""
    net = SurrogateNetwork(k1=1e2, k2=1e4, q=1e-2, e_ref=1.0)
    shape = (2, 2, 1)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.5, 2.0, shape)
    z = ManyVector([np.stack([rng.uniform(0.5, 1.5, shape),
                              rng.uniform(0.1, 0.5, shape),
                              rng.uniform(0.5, 1.5, shape)])])

    def f(t, v):
        return ManyVector([net.rhs(rho, v.arrays[0])])

    eng = NewtonEngine(lambda t, v: net.jacobian_values(rho, v.arrays[0]),
                       net.FIELDS)
    a = z.copy()
    weights = error_weights(z, 1e-8, 1e-12)
    return eng, f, z, a, weights, hg


@pytest.mark.parametrize("diagonal, field, column", [
    ((1.0, 1.0, 1.0), "H", 0), ((0.0, 0.0, 1.0), "e_g", 2)],
    ids=["zeroed-block", "zeroed-e_g-row"])
def test_singular_reduced_block_names_a_network_field(diagonal, field, column):
    # the run's engine on the three network fields: at hg = 1, J = diag(...)
    # in cell 1 zeroes the block there, or only its e_g row
    _, eng, _ = reaction_problem(SurrogateNetwork(), Profile())
    vals = np.zeros((3, 3, 2, 2, 1))
    vals[range(3), range(3), 0, 1, 0] = diagonal
    eng.jacobian = lambda t, v: vals
    z = ManyVector([np.ones((3, 2, 2, 1))])
    with pytest.raises(LinearSolveError,
                       match=rf"local cell 1: zero pivot for field {field}$"
                       ) as info:
        eng.solve(lambda t, v: v.copy(), 0.0, z, z.copy(), 1.0,
                  error_weights(z, 1e-5, 1e-9))
    assert (info.value.cell, info.value.column) == (1, column)


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
    for zz, ff, aa in zip(z.arrays[0], f(0.0, z).arrays[0], a.arrays[0]):
        assert np.abs(zz - hg * ff - aa).max() <= 5e-9


def test_divergence_raises_with_freshness_flag():
    # Jacobian with the wrong sign at hg=1 sends the iteration away
    def f(t, v):
        return ManyVector([-50.0 * v.arrays[0]])

    z = _vector((2, 1, 1), 1).fill(1.0)
    a = z.copy().fill(0.5)
    eng = scalar_newton(lambda t: 50.0)
    weights = error_weights(z, 1e-5, 1e-9)
    with pytest.raises(ConvergenceFailure):
        eng.solve(f, 0.0, z, a, 1.0, weights)
    assert eng.stats.failures == 1
    # cache was dropped: the next call re-evaluates
    assert eng._jac_values is None


def test_non_finite_update_norm_fails_at_once():
    def nan_rhs(t, v):
        out = v.clone_empty()
        out.fill(np.nan)
        return out

    z = _vector((2, 1, 1), 1)
    eng = scalar_newton(lambda t: 0.0)
    with pytest.raises(ConvergenceFailure, match="after 1 iterations"):
        eng.solve(nan_rhs, 0.0, z, z.copy(), 0.5, error_weights(z, 1e-5, 1e-9))
    assert (eng.stats.iterations, eng.stats.failures) == (1, 1)


def test_norm_counts_the_state_length_not_the_rhs_length():
    # a run's fast state keeps the length of the whole 15-field state; an
    # f that returns the default length must not change the convergence
    # test. The Jacobian -1.7 of f = -2 y contracts linearly, so a norm
    # off by sqrt(15) would take one more iteration.
    results = []
    for keep in (False, True):
        z = ManyVector([np.linspace(1.0, 2.0, 4)[None]], global_length=15 * 4)
        a = z.copy()
        eng = NewtonEngine(lambda t, v: np.full((1, 1, 4), -1.7), ("y",))

        def f(t, v):
            return ManyVector([-2.0 * v.arrays[0]],
                              v.global_length if keep else None)

        iters = eng.solve(f, 0.0, z, a, 1.0, error_weights(a, 1e-5, 1e-9))
        results.append((iters, z.arrays[0]))
    (iters_default, z_default), (iters_kept, z_kept) = results
    assert iters_default == iters_kept == 7
    np.testing.assert_array_equal(z_default, z_kept)


def test_jacobian_of_the_wrong_shape_is_rejected():
    # (4, 9): 4 cells first, the 3x3 entries last; it has the right size
    # but would be read as scrambled blocks
    z = _vector((4,), 3).fill(1.0)
    eng = NewtonEngine(lambda t, v: np.ones((4, 9)), ("H", "H2", "e_g"))
    with pytest.raises(LinearSolveError,
                       match=r"shape \(4, 9\), expected \(3, 3, 4\)"):
        eng.solve(lambda t, v: v.copy(), 0.0, z, z.copy(), 0.1,
                  error_weights(z, 1e-5, 1e-9))
    assert eng._jac_values is None


@pytest.mark.parametrize("arrays, shapes", [
    ([np.ones((2, 4))], r"\(2, 4\)"),
    ([np.ones(4) for _ in range(3)], r"\(4,\), \(4,\), \(4,\)"),
], ids=["two-rows", "one-array-per-field"])
def test_unknowns_of_the_wrong_shape_are_rejected(arrays, shapes):
    # z must be one block with one row per field: 3 here
    z = ManyVector(arrays)
    eng = NewtonEngine(lambda t, v: np.ones((3, 3, 4)), ("H", "H2", "e_g"))
    with pytest.raises(LinearSolveError,
                       match=rf"^z has shape {shapes}, expected \(3,\)"
                             r" \+ cell shape$"):
        eng.solve(lambda t, v: v.copy(), 0.0, z, z.copy(), 0.1,
                  error_weights(z, 1e-5, 1e-9))
    assert eng.stats.jac_evals == eng.stats.iterations == 0
