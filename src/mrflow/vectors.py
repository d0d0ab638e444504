"""State vectors for the solver stack.

A ManyVector groups several subvectors (here: five distributed fluid
fields plus one task-local chemistry block) behind one interface so
integrators never see the partitioning. Plain numpy arrays are accepted
everywhere a vector is, which keeps single-cell and ODE-level tests
free of harness machinery.

Reductions run in two modes. Batched (default): every norm or dot
performs its local work per subvector, then finalizes all partial
values in a single cross-task round. Unbatched: one round per subvector
(or per dot product). Both modes combine identical per-slot partials in
identical rank order, so the VALUES are bit-identical; only the round
count differs. The fused linear-combination kernels accumulate strictly
left-to-right in argument order, which makes fused and unfused
evaluation bit-identical as well.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .transport import ProtocolError

SNAPSHOT_MAGIC = b"MVSNAP01"


@dataclass
class ReductionLedger:
    """Counts cross-task reduction rounds.

    One round = one collective call, regardless of how many scalar slots
    it carries. local_phase_open is set while local partials for a
    deferred reduction are being accumulated.
    """
    global_reduction_count: int = 0
    local_phase_open: bool = False

    def record_round(self, n_slots: int = 1):
        self.global_reduction_count += 1


class ManyVector:
    """Ordered subvectors sharing one communicator.

    arrays may have any shapes; all arithmetic is elementwise over each
    array. kinds/global_lengths follow the same order.
    """

    __slots__ = ("arrays", "kinds", "global_lengths", "comm",
                 "fused_ops", "batched_reductions")

    def __init__(self, arrays, kinds=None, global_lengths=None, comm=None,
                 fused_ops=True, batched_reductions=True):
        self.arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        self.kinds = list(kinds) if kinds is not None else ["task_local"] * len(self.arrays)
        if global_lengths is None:
            global_lengths = [a.size for a in self.arrays]
        self.global_lengths = list(global_lengths)
        self.comm = comm
        self.fused_ops = fused_ops
        self.batched_reductions = batched_reductions

    # structure ----------------------------------------------------------
    @property
    def global_length(self) -> int:
        return int(sum(self.global_lengths))

    def clone_empty(self) -> "ManyVector":
        return ManyVector([np.empty_like(a) for a in self.arrays], self.kinds,
                          self.global_lengths, self.comm,
                          self.fused_ops, self.batched_reductions)

    def copy(self) -> "ManyVector":
        return ManyVector([a.copy() for a in self.arrays], self.kinds,
                          self.global_lengths, self.comm,
                          self.fused_ops, self.batched_reductions)

    def fill(self, value: float):
        for a in self.arrays:
            a.fill(value)
        return self


VectorLike = ManyVector | np.ndarray


def subarrays(v) -> list:
    if isinstance(v, ManyVector):
        return v.arrays
    return [np.asarray(v)]


def _comm(v):
    return v.comm if isinstance(v, ManyVector) else None


def _global_length(v) -> int:
    if isinstance(v, ManyVector):
        return v.global_length
    return np.asarray(v).size


def clone_empty(v):
    if isinstance(v, ManyVector):
        return v.clone_empty()
    return np.empty_like(v)


def copy_of(v):
    if isinstance(v, ManyVector):
        return v.copy()
    return np.array(v, dtype=np.float64, copy=True)


# ---------------------------------------------------------------------------
# elementwise kernels

def linear_sum(a: float, x, b: float, y, out=None):
    """out = a*x + b*y, elementwise over every subvector."""
    if out is None:
        out = clone_empty(x)
    for xo, xa, ya in zip(subarrays(out), subarrays(x), subarrays(y)):
        np.multiply(xa, a, out=xo)
        xo += b * ya
    return out

def scale(a: float, x, out=None):
    if out is None:
        out = clone_empty(x)
    for xo, xa in zip(subarrays(out), subarrays(x)):
        np.multiply(xa, a, out=xo)
    return out


def fused_linear_combination(coeffs, vecs, out=None):
    """out = sum_j coeffs[j] * vecs[j].

    Accumulation is strictly left-to-right in j, so the result is
    bit-identical to the unfused sequence of scale/linear_sum calls.
    When the leading vector carries fused_ops=False the unfused path is
    taken (same arithmetic, separate temporaries per term).
    """
    if len(coeffs) != len(vecs) or not vecs:
        raise ValueError("coeffs and vecs must be equal-length and non-empty")
    fused = vecs[0].fused_ops if isinstance(vecs[0], ManyVector) else True
    if out is None:
        out = clone_empty(vecs[0])
    if fused:
        outs = subarrays(out)
        for s, o in enumerate(outs):
            np.multiply(subarrays(vecs[0])[s], coeffs[0], out=o)
            for c, v in zip(coeffs[1:], vecs[1:]):
                o += c * subarrays(v)[s]
        return out
    # unfused: running binary sums, one temporary per term
    acc = scale(coeffs[0], vecs[0])
    for c, v in zip(coeffs[1:], vecs[1:]):
        acc = linear_sum(1.0, acc, c, v)
    for o, a in zip(subarrays(out), subarrays(acc)):
        o[...] = a
    return out


# ---------------------------------------------------------------------------
# reductions

def _ledger(v):
    comm = _comm(v)
    return comm.ledger if comm is not None else None


def local_reduce_then_finalize(comm, partials, op: str = "sum") -> np.ndarray:
    """Finalize deferred local partials in one cross-task round.

    partials holds one slot per deferred reduction. Raises ProtocolError
    when no communicator is active for the calling context.
    """
    if comm is None:
        raise ProtocolError("local_reduce_then_finalize outside a collective context")
    if comm.ledger is not None and not comm.ledger.local_phase_open:
        raise ProtocolError("no local reduction phase is open")
    result = comm.allreduce(partials, op)
    if comm.ledger is not None:
        comm.ledger.local_phase_open = False
    return result


def _finalize_slots(v, slots, op="sum") -> np.ndarray:
    """Reduce per-slot partials across tasks, honoring the batching mode.

    Batched: one round carrying all slots. Unbatched: one round per
    slot. Slot values are bit-identical either way.
    """
    comm = _comm(v)
    slots = np.atleast_1d(np.asarray(slots, dtype=np.float64))
    if comm is None:
        return slots
    batched = v.batched_reductions if isinstance(v, ManyVector) else True
    ledger = comm.ledger
    if batched:
        if ledger is not None:
            ledger.local_phase_open = True
        return local_reduce_then_finalize(comm, slots, op)
    return np.array([comm.allreduce(s, op)[0] for s in slots])


def fused_multi_dot(x, vecs) -> np.ndarray:
    """All dot products <x, v_j>; one reduction round carrying every
    partial in batched mode, one round per dot product otherwise."""
    partials = []
    for v in vecs:
        p = 0.0
        for xa, va in zip(subarrays(x), subarrays(v)):
            p += float(np.dot(xa.ravel(), va.ravel()))
        partials.append(p)
    return _finalize_slots(x, partials, "sum")


def dot(x, y) -> float:
    return float(fused_multi_dot(x, [y])[0])


def wrms_norm(x, w) -> float:
    """sqrt((1/N_global) * sum_i (x_i * w_i)^2).

    One cross-task round for a ManyVector in batched mode; one round per
    subvector otherwise.
    """
    partials = [float(np.sum((xa * wa) ** 2))
                for xa, wa in zip(subarrays(x), subarrays(w))]
    totals = _finalize_slots(x, partials, "sum")
    total = 0.0
    for t in totals:
        total += float(t)
    return float(np.sqrt(total / _global_length(x)))


def max_norm(x) -> float:
    partials = [float(np.max(np.abs(xa))) if xa.size else 0.0 for xa in subarrays(x)]
    totals = _finalize_slots(x, partials, "max")
    return float(np.max(totals))


def error_weights(y, rtol: float, atol: float, out=None):
    """w_i = 1 / (rtol*|y_i| + atol), from the step's initial state."""
    if out is None:
        out = clone_empty(y)
    for wo, ya in zip(subarrays(out), subarrays(y)):
        np.abs(ya, out=wo)
        wo *= rtol
        wo += atol
        np.reciprocal(wo, out=wo)
    return out


# ---------------------------------------------------------------------------
# snapshot i/o: magic, subvector count, element width, lengths, LE payloads

def write_snapshot(path, arrays):
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", len(arrays), 8))
        for a in arrays:
            fh.write(struct.pack("<Q", a.size))
        for a in arrays:
            fh.write(a.tobytes())


def read_snapshot(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a snapshot file: bad magic {magic!r}")
        count, width = struct.unpack("<II", fh.read(8))
        if width != 8:
            raise ValueError(f"unsupported element width {width}")
        lengths = [struct.unpack("<Q", fh.read(8))[0] for _ in range(count)]
        out = []
        for n in lengths:
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise ValueError("snapshot payload truncated")
            out.append(np.frombuffer(raw, dtype="<f8").copy())
        return out
