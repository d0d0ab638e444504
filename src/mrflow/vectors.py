"""State vectors for the solver stack.

A ManyVector groups several subvectors (here: five distributed fluid
fields plus one task-local chemistry block) behind one interface so
integrators never see the partitioning, and carries the communicator
its reductions run on.

One flag per vector, batched_reductions, selects the mode of every
operation. Batched (default): linear combinations accumulate in place
in one fused pass, and a norm finalizes the partials of all subvectors
in a single cross-task round. Unbatched: a running binary sum with a
new temporary per term, and one round per subvector. Both modes do the
same arithmetic left to right and combine identical per-slot partials
in identical rank order, so the VALUES are bit-identical; only the
temporaries and the round count differ.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

SNAPSHOT_MAGIC = b"MVSNAP01"


@dataclass
class ReductionLedger:
    """Counts cross-task reduction rounds: one per collective call,
    however many scalar slots it carries."""
    global_reduction_count: int = 0

    def record_round(self):
        self.global_reduction_count += 1


class ManyVector:
    """Ordered subvectors sharing one communicator (None: task-local).

    arrays may have any shapes; all arithmetic is elementwise over each
    array. global_lengths are the subvector lengths summed over tasks
    (default: the local sizes); batched_reductions is the mode flag.
    """

    __slots__ = ("arrays", "global_lengths", "comm", "batched_reductions")

    def __init__(self, arrays, global_lengths=None, comm=None,
                 batched_reductions=True):
        self.arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        if global_lengths is None:
            global_lengths = [a.size for a in self.arrays]
        self.global_lengths = list(global_lengths)
        self.comm = comm
        self.batched_reductions = batched_reductions

    # structure ----------------------------------------------------------
    @property
    def global_length(self) -> int:
        return int(sum(self.global_lengths))

    def clone_empty(self) -> "ManyVector":
        return ManyVector([np.empty_like(a) for a in self.arrays],
                          self.global_lengths, self.comm,
                          self.batched_reductions)

    def copy(self) -> "ManyVector":
        return ManyVector([a.copy() for a in self.arrays],
                          self.global_lengths, self.comm,
                          self.batched_reductions)

    def fill(self, value: float):
        for a in self.arrays:
            a.fill(value)
        return self


# ---------------------------------------------------------------------------
# elementwise kernels

def fused_linear_combination(coeffs, vecs, out=None):
    """out = sum_j coeffs[j] * vecs[j], accumulated left to right in j.

    Zero-coefficient terms are skipped (all zero: out = 0), so vectors a
    table never weights are never read. The leading kept vector's mode
    picks in-place accumulation (batched) or a new temporary per binary
    sum; the bits are the same.
    """
    if len(coeffs) != len(vecs) or not vecs:
        raise ValueError("coeffs and vecs must be equal-length and non-empty")
    if out is None:
        out = vecs[0].clone_empty()
    terms = [(c, v) for c, v in zip(coeffs, vecs) if c != 0.0]
    if not terms:
        return out.fill(0.0)
    coeffs, vecs = zip(*terms)
    fused = vecs[0].batched_reductions
    for o, *parts in zip(out.arrays, *(v.arrays for v in vecs)):
        if fused:
            np.multiply(parts[0], coeffs[0], out=o)
            for c, p in zip(coeffs[1:], parts[1:]):
                o += c * p
        else:
            acc = parts[0] * coeffs[0]
            for c, p in zip(coeffs[1:], parts[1:]):
                acc = acc + c * p
            o[...] = acc
    return out


# ---------------------------------------------------------------------------
# reductions

def _finalize_slots(v: ManyVector, slots) -> np.ndarray:
    """Sum per-slot partials across v's tasks.

    Batched: one round carrying all slots. Unbatched: one round per
    slot. Slot values are bit-identical either way.
    """
    slots = np.asarray(slots, dtype=np.float64)
    if v.comm is None:
        return slots
    if v.batched_reductions:
        return v.comm.allreduce(slots, "sum")
    return np.array([v.comm.allreduce(s, "sum")[0] for s in slots])


def wrms_norm(x: ManyVector, w: ManyVector) -> float:
    """sqrt((1/N_global) * sum_i (x_i * w_i)^2).

    One cross-task round in batched mode; one round per subvector
    otherwise.
    """
    partials = [float(np.square(p, out=p).sum())
                for p in map(np.multiply, x.arrays, w.arrays)]
    total = 0.0
    for t in _finalize_slots(x, partials):
        total += float(t)
    return float(np.sqrt(total / x.global_length))


def error_weights(y: ManyVector, rtol: float, atol: float, out=None):
    """w_i = 1 / (rtol*|y_i| + atol), from the step's initial state."""
    if out is None:
        out = y.clone_empty()
    for wo, ya in zip(out.arrays, y.arrays):
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
        try:
            count, width = struct.unpack("<II", fh.read(8))
            if width != 8:
                raise ValueError(f"unsupported element width {width}")
            lengths = [struct.unpack("<Q", fh.read(8))[0] for _ in range(count)]
        except struct.error:
            raise ValueError("snapshot header truncated") from None
        out = []
        for n in lengths:
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise ValueError("snapshot payload truncated")
            out.append(np.frombuffer(raw, dtype="<f8").copy())
        return out
