"""Modified Newton iteration for the implicit fast stages.

The unknowns z are one (m,) + cell shape array, one field per row. The
reaction network couples them only within a cell, so the Jacobian is
block diagonal: one dense m x m block per cell (3 x 3 for the surrogate
network on H, H2 and e_g). The blocks of I - hg*J are stored
cell-innermost, (m, m, cells), so each entry is one contiguous row
over the cells, and factored by partially pivoted LU batched over
cells. A pivot swap is a masked selection (np.where) of two rows for
the cells that pivot there; the swaps compose into one gather index.
A solve reads the residual g itself: z -= A^-1 g, no negated copy.

The convergence norm of each update is a WRMS norm of z's length and
mode flag: one round per iteration when batched, one per field when
not. A fused ark.evolve instead passes `pending`, stops each solve
after its first iteration and checks all the norms in its own round.
Linear solves touch no communicator; the factored iteration matrix is
reused across stages and steps until a convergence failure or a new
step-times-gamma coefficient forces a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .profiling import Profile, Region
from .vectors import wrms_finish, wrms_partials

MAX_ITERS = 10
DEFAULT_CONV_COEF = 0.01


class LinearSolveError(RuntimeError):
    """A singular block at (cell, column), or an input of the wrong shape."""

    def __init__(self, message: str, cell: int | None = None,
                 column: int | None = None):
        super().__init__(message)
        self.cell = cell
        self.column = column


class ConvergenceFailure(Exception):
    """Newton did not converge. A speculative solve (pending) never
    raises it: its caller's window fails the k = 1 test and is undone."""


def block_lu_factor(blocks: np.ndarray) -> np.ndarray:
    """In-place LU with partial pivoting of (nb, nb, n_cells) blocks.

    Returns the row permutation as a flat gather index (nb, n_cells):
    row i of cell c's factored block is row perm[i, c] // n_cells of the
    original, and rhs.take(perm) permutes a (nb, n_cells) rhs. Raises
    LinearSolveError naming the first offending cell if any block is
    singular.
    """
    nb, _, n_cells = blocks.shape
    perm = np.arange(nb * n_cells).reshape(nb, n_cells)
    for k in range(nb):
        # the cells that pivot on row r swap rows k and r (at most once)
        p = k + np.abs(blocks[k:, k]).argmax(axis=0) if k + 1 < nb else k
        for r in range(k + 1, nb):
            if (sw := p == r).any():
                for a in (blocks, perm):
                    a[k], a[r] = (np.where(sw, a[r], a[k]),
                                  np.where(sw, a[k], a[r]))
        piv = blocks[k, k]
        if np.any(piv == 0.0):
            bad = int(np.flatnonzero(piv == 0.0)[0])
            raise LinearSolveError(
                f"singular {nb}x{nb} block in cell {bad} (pivot column {k})",
                cell=bad, column=k)
        blocks[k + 1:, k] /= piv
        blocks[k + 1:, k + 1:] -= blocks[k + 1:, k, None] * blocks[k, k + 1:]
    return perm


def block_lu_solve(blocks: np.ndarray, perm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve factored blocks against rhs (nb, n_cells), given the gather
    index block_lu_factor returned. Purely local."""
    nb = blocks.shape[0]
    x = rhs.take(perm)
    # each row sums its products left to right, as .sum() does below 8
    for i in range(1, nb):
        x[i] -= reduce(np.add, blocks[i, :i] * x[:i])
    for i in range(nb - 1, -1, -1):
        if i + 1 < nb:
            x[i] -= reduce(np.add, blocks[i, i + 1:] * x[i + 1:])
        x[i] /= blocks[i, i]
    return x


@dataclass
class NewtonStats:
    iterations: int = 0
    jac_evals: int = 0
    factorizations: int = 0
    solves: int = 0
    failures: int = 0


class NewtonEngine:
    """Solves the stage equation z - hg*f(t, z) - a = 0.

    z has m = len(names) rows, names[r] naming row r's field in errors,
    and f(t, z) returns a vector of its layout; jacobian(t, z) returns
    the (m, m) + cell shape blocks, [r][c] = d f_r / d z_c. A z or a
    Jacobian of another shape raises LinearSolveError. I - hg*J and its
    factorization are kept between calls until hg changes or reset()/a
    convergence failure drops them. The convergence norm takes z's
    length and communicator; the iteration converges at
    rate * norm <= DEFAULT_CONV_COEF.
    """

    def __init__(self, jacobian, names, profile=None):
        self.jacobian = jacobian
        self.names = tuple(names)
        self.profile = profile if profile is not None else Profile()
        self.stats = NewtonStats()
        self._jac_values = self._lu = self._perm = self._hg_cached = None

    def reset(self):
        """Drop the cached Jacobian and factorization."""
        self._jac_values = self._lu = self._perm = self._hg_cached = None

    def checkpoint(self):
        """The cache and statistics, as restore() takes them back."""
        return dict(vars(self), stats=replace(self.stats))

    def restore(self, saved):
        vars(self.stats).update(vars(saved["stats"]))
        vars(self).update(saved, stats=self.stats)

    def solve(self, f, t: float, z, a, hg: float, weights, pending=None):
        """Newton-iterate z in place; returns the iteration count.

        f(t, z) evaluates the stiff right-hand side. a is the constant
        stage data, hg the step-times-diagonal coefficient, weights the
        error weights for the convergence norm. A growing or non-finite
        update norm stops the iteration at once. Given a list pending,
        only iteration 1 runs; it appends its norm's local partials there
        for the caller's k = 1 test (norm <= DEFAULT_CONV_COEF).
        """
        m, zz = len(self.names), z.arrays[0]
        if len(z.arrays) != 1 or zz.shape[:1] != (m,):
            raise LinearSolveError(
                f"z has shape {', '.join(str(x.shape) for x in z.arrays)},"
                f" expected ({m},) + cell shape")
        if self._jac_values is None:
            with self.profile.region(Region.FAST_JAC):
                jac = self.jacobian(t, z)
            want = (m, m) + zz.shape[1:]
            if np.shape(jac) != want:
                raise LinearSolveError(
                    f"Jacobian has shape {np.shape(jac)}, expected {want}")
            self._jac_values = jac
            self.stats.jac_evals += 1
        if self._lu is None or hg != self._hg_cached:
            self._factor(hg)

        norm_prev = None
        rate = 1.0
        for k in range(1, MAX_ITERS + 1):
            self.stats.iterations += 1
            resid = f(t, z)
            g = resid.arrays[0]
            g *= -hg
            g += zz
            g -= a.arrays[0]
            with self.profile.region(Region.LIN_SOLVE):   # z -= A^-1 g
                resid.arrays[0] = dz = block_lu_solve(
                    self._lu, self._perm, g.reshape(m, -1)).reshape(g.shape)
            self.stats.solves += 1
            zz -= dz
            partials = wrms_partials(resid, weights)
            if pending is not None:
                pending += partials
                return k
            norm = wrms_finish(z, partials)[0]
            if not np.isfinite(norm):
                break
            if norm_prev is not None:
                if norm > 2.0 * norm_prev:
                    break
                rate = max(0.3 * rate, norm / norm_prev)
            if rate * norm <= DEFAULT_CONV_COEF:
                return k
            norm_prev = norm
        self.stats.failures += 1
        self.reset()
        r, cell = divmod(int(np.argmax(np.abs(dz * weights.arrays[0]))),
                         dz[0].size)   # the first NaN, if any
        raise ConvergenceFailure(
            f"no convergence after {k} iterations (update norm {norm:.3g});"
            f" largest |update*w| on rank {getattr(z.comm, 'rank', 0)}, field"
            f" {self.names[r]}, local cell {cell}")

    def _factor(self, hg: float):
        self._lu = None
        m = len(self.names)
        with self.profile.region(Region.LIN_SETUP):
            lu = np.reshape(self._jac_values, (m, m, -1)) * -hg
            lu[range(m), range(m)] += 1.0
            try:
                perm = block_lu_factor(lu)
            except LinearSolveError as err:
                raise LinearSolveError(
                    f"singular Newton block in local cell {err.cell}: zero"
                    f" pivot for field {self.names[err.column]}",
                    cell=err.cell, column=err.column) from err
        self._lu, self._perm = lu, perm
        self._hg_cached = hg
        self.stats.factorizations += 1
