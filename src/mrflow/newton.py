"""Modified Newton iteration for the implicit fast stages.

The reaction network couples unknowns only within a cell, so the
Jacobian is block diagonal: one nb x nb block per cell, every block
sharing the same sparsity pattern. Its rows are the vector's fields; a
subvector with one more axis than the first holds one per entry of its
last axis. The pattern, analysed once, splits the rows of I - hg*J in two:

  identity rows  no pattern entry; the update is x = b, done in place on
                 the vector's arrays;
  coupled rows   one small m x m block per cell (3 x 3 for the surrogate
                 network), assembled straight from the pattern values and
                 factored by partially pivoted LU batched over cells.
                 Blocks are stored cell-innermost, (m, m, cells), and
                 right-hand sides (m, cells), so each entry is one
                 contiguous row over the cells. A pivot swap is a masked
                 selection (np.where) between two rows for the cells
                 that pivot there; the swaps compose into one row
                 permutation per cell, so a solve gathers rhs once.

A pattern column outside the coupled rows is an identity row, so its
value is known before the block solve and its term moves into the
right-hand side: a block-triangular order with the 1 x 1 identity blocks
first.

The convergence norm of each update is vectors.wrms_norm, which follows
the vector's mode flag: one global round per iteration when batched,
one per subvector when not. Linear solves touch no communicator; the
iteration matrix and its factorization are reused across stages and
steps until a convergence failure or a change in the step-times-gamma
coefficient forces a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chemistry import SPECIES
from .profiling import Profile, Region
from .vectors import wrms_norm

MAX_ITERS = 10
DEFAULT_CONV_COEF = 0.01
FLUID_FIELDS = ("rho", "mx", "my", "mz", "et")


class LinearSolveError(RuntimeError):
    """A singular block; cell and column locate the zero pivot."""

    def __init__(self, message: str, cell: int | None = None,
                 column: int | None = None):
        super().__init__(message)
        self.cell = cell
        self.column = column


class ConvergenceFailure(Exception):
    """Newton did not converge; jac_was_fresh tells the caller whether a
    Jacobian refresh is worth trying before cutting the step."""

    def __init__(self, message: str, jac_was_fresh: bool):
        super().__init__(message)
        self.jac_was_fresh = jac_was_fresh


def block_lu_factor(blocks: np.ndarray) -> np.ndarray:
    """In-place LU with partial pivoting of (nb, nb, n_cells) blocks.

    Returns the row permutation (nb, n_cells): row i of each factored
    block is row perm[i] of the original. Raises LinearSolveError naming
    the first offending cell if any block is singular.
    """
    nb, _, n_cells = blocks.shape
    perm = np.repeat(np.arange(nb)[:, None], n_cells, axis=1)
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
    """Solve factored blocks against rhs (nb, n_cells), given the row
    permutation block_lu_factor returned. Purely local."""
    nb = blocks.shape[0]
    x = np.take_along_axis(rhs, perm, axis=0)
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

    jacobian(t, state) must return entries for `pattern` stacked on the
    last axis over the local cells. The iteration matrix I - hg*J is
    kept (with its factorization) between calls and rebuilt only when hg
    changes or reset()/a convergence failure invalidates it. Only its
    coupled rows are stored: see the module docstring. The convergence
    norm reduces on the vectors' own communicator. The iteration
    converges at rate * norm <= DEFAULT_CONV_COEF. names[row] names a
    row's field in errors (default: a fluid + chemistry state).
    """

    def __init__(self, jacobian, pattern, nb: int, profile=None,
                 names=FLUID_FIELDS + SPECIES):
        self.jacobian = jacobian
        self.pattern = tuple(pattern)
        self.names = names
        self.profile = profile if profile is not None else Profile()
        self.stats = NewtonStats()
        for r, c in self.pattern:
            if not (0 <= r < nb and 0 <= c < nb):
                raise ValueError(f"pattern entry ({r}, {c}) outside block")
        self._rows = sorted({r for r, _ in self.pattern})
        self._local = {r: i for i, r in enumerate(self._rows)}
        # (block row, vector row) of each term whose column is an identity row
        self._known = sorted({(self._local[r], c) for r, c in self.pattern
                              if c not in self._local})
        self._known_coef = None
        self._jac_values = None
        self._lu = None
        self._perm = None
        self._hg_cached = None

    def reset(self):
        """Drop the cached Jacobian and factorization."""
        self._jac_values = None
        self._lu = None
        self._perm = None
        self._hg_cached = None

    def solve(self, f, t: float, z, a, hg: float, weights):
        """Newton-iterate z in place; returns the iteration count.

        f(t, z) evaluates the stiff right-hand side. a is the constant
        stage data, hg the step-times-diagonal coefficient, weights the
        error weights for the convergence norm. A growing or non-finite
        update norm stops the iteration at once.
        """
        fresh = self._jac_values is None
        if fresh:
            with self.profile.region(Region.FAST_JAC):
                self._jac_values = self.jacobian(t, z).reshape(-1, len(self.pattern))
            self.stats.jac_evals += 1
        if fresh or self._lu is None or hg != self._hg_cached:
            self._factor(hg)

        norm_prev = None
        rate = 1.0
        for k in range(1, MAX_ITERS + 1):
            self.stats.iterations += 1
            resid = f(t, z)
            for g, zz, aa in zip(resid.arrays, z.arrays, a.arrays):
                g *= -hg
                g += zz
                g -= aa
            with self.profile.region(Region.LIN_SOLVE):
                self._solve_in_place(resid)
            self.stats.solves += 1
            for zz, dd in zip(z.arrays, resid.arrays):
                zz += dd
            norm = wrms_norm(resid, weights)
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
        raise ConvergenceFailure(
            f"no convergence after {k} iterations (update norm {norm:.3g})",
            fresh)

    def _solve_in_place(self, v):
        """v <- (I - hg*J)^-1 (-v): identity rows are negated in place;
        known-column terms move to the right-hand side of the block."""
        for x in v.arrays:
            np.negative(x, out=x)
        nd = v.arrays[0].ndim     # the vector's fields: see the module doc
        fields = [f for a in v.arrays
                  for f in (np.moveaxis(a, -1, 0) if a.ndim > nd else (a,))]
        block = [fields[r] for r in self._rows]
        rhs = np.stack([x.reshape(-1) for x in block])
        for q, (j, c) in enumerate(self._known):
            rhs[j] -= self._known_coef[q] * fields[c].reshape(-1)
        for x, row in zip(block, block_lu_solve(self._lu, self._perm, rhs)):
            x[...] = row.reshape(x.shape)

    def _factor(self, hg: float):
        self._lu = None
        m = len(self._rows)
        with self.profile.region(Region.LIN_SETUP):
            vals = self._jac_values
            lu = np.zeros((m, m, len(vals)))
            known = np.zeros((len(self._known), len(vals)))
            # -hg*J entry by entry (duplicates add), then +1 on the diagonal
            for k, (r, c) in enumerate(self.pattern):
                i = self._local[r]
                if c in self._local:
                    lu[i, self._local[c]] += -hg * vals[:, k]
                else:
                    known[self._known.index((i, c))] += -hg * vals[:, k]
            lu[range(m), range(m)] += 1.0
            try:
                perm = block_lu_factor(lu)
            except LinearSolveError as err:
                row = self._rows[err.column]
                raise LinearSolveError(
                    f"singular Newton block in local cell {err.cell}: zero"
                    f" pivot for field {self.names[row]}",
                    cell=err.cell, column=row) from err
        self._lu, self._perm, self._known_coef = lu, perm, known
        self._hg_cached = hg
        self.stats.factorizations += 1
