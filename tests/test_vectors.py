"""ManyVector kernels: frozen values, fused/unfused equivalence, snapshots."""

import numpy as np
import pytest

from mrflow.transport import run_spmd
from mrflow.vectors import (ManyVector, ReductionLedger, SNAPSHOT_MAGIC,
                            error_weights, fused_linear_combination,
                            read_snapshot, wrms_norm, write_snapshot)


def mv(*arrays, **kw):
    return ManyVector([np.asarray(a, dtype=float) for a in arrays], **kw)


def test_linear_sum_hand_value():
    for batched in (True, False):
        x = mv([1.0, 2.0], batched_reductions=batched)
        y = mv([4.0, 5.0])
        out = fused_linear_combination([2.0, 3.0], [x, y])
        np.testing.assert_array_equal(out.arrays[0], [14.0, 19.0])


def test_linear_sum_many_vector_and_aliasing():
    for batched in (True, False):
        v = mv([1.0, 2.0], [[3.0], [4.0]], batched_reductions=batched)
        w = v.copy()
        fused_linear_combination([1.0, 1.0], [v, w], out=v)
        np.testing.assert_array_equal(v.arrays[0], [2.0, 4.0])
        np.testing.assert_array_equal(v.arrays[1], [[6.0], [8.0]])


def test_scale():
    for batched in (True, False):
        v = mv([1.0, -2.0], batched_reductions=batched)
        fused_linear_combination([-3.0], [v], out=v)
        np.testing.assert_array_equal(v.arrays[0], [-3.0, 6.0])


def test_fused_combination_hand_value():
    ones = mv([1.0, 1.0])
    out = fused_linear_combination([1.0, 2.0, 3.0],
                                   [ones, ones.copy(), ones.copy()])
    np.testing.assert_array_equal(out.arrays[0], [6.0, 6.0])


def test_fused_combination_identity_and_cancellation():
    v = mv([3.0, -7.0, 0.5])
    out = fused_linear_combination([1.0], [v])
    np.testing.assert_array_equal(out.arrays[0], v.arrays[0])
    zero = fused_linear_combination([1.0, -1.0], [v, v])
    np.testing.assert_array_equal(zero.arrays[0], [0.0, 0.0, 0.0])


def test_fused_combination_rejects_empty_and_mismatch():
    v = mv([1.0])
    with pytest.raises(ValueError):
        fused_linear_combination([], [])
    with pytest.raises(ValueError):
        fused_linear_combination([1.0, 2.0], [v])


def test_fused_matches_unfused_bitwise():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = rng.integers(1, 6)
        coeffs = list(rng.standard_normal(k))
        vecs = [mv(rng.standard_normal(17), rng.standard_normal((3, 4)))
                for _ in range(k)]
        unbatched = [ManyVector(v.arrays, batched_reductions=False)
                     for v in vecs]
        fused = fused_linear_combination(coeffs, vecs)
        unfused = fused_linear_combination(coeffs, unbatched)
        for fa, ua in zip(fused.arrays, unfused.arrays):
            np.testing.assert_array_equal(fa, ua)


def test_fused_combination_out_aliases_first_vec():
    rng = np.random.default_rng(7)
    vecs = [mv(rng.standard_normal(9)) for _ in range(3)]
    expect = fused_linear_combination([2.0, -1.0, 0.5], vecs)
    fused_linear_combination([2.0, -1.0, 0.5], vecs, out=vecs[0])
    np.testing.assert_array_equal(vecs[0].arrays[0], expect.arrays[0])


def test_wrms_hand_value():
    x = mv([3.0, 4.0])
    w = mv([1.0, 1.0])
    assert wrms_norm(x, w) == pytest.approx(np.sqrt(12.5), rel=1e-15)


def test_wrms_trivial_cases():
    z = mv(np.zeros(5), np.zeros(3))
    w = mv(np.ones(5), np.ones(3))
    assert wrms_norm(z, w) == 0.0
    o = mv(np.ones(5), np.ones(3))
    assert wrms_norm(o, w) == pytest.approx(1.0, abs=1e-15)


def test_wrms_homogeneity():
    rng = np.random.default_rng(0)
    x = mv(rng.standard_normal(11), rng.standard_normal(6))
    w = mv(rng.uniform(0.5, 2.0, 11), rng.uniform(0.5, 2.0, 6))
    a = wrms_norm(x, w)
    sx = fused_linear_combination([-2.5], [x])
    assert wrms_norm(sx, w) == pytest.approx(2.5 * a, rel=1e-15)


def test_error_weights():
    y = mv([-2.0, 0.0])
    w = error_weights(y, 0.1, 0.01)
    np.testing.assert_allclose(w.arrays[0], [1.0 / 0.21, 100.0], rtol=1e-15)


def _dist(comm, n_sub, batched):
    """Per-task 2-element subvectors, globally length 2*size each."""
    arrays = [np.full(2, float(comm.rank + 1 + i)) for i in range(n_sub)]
    ledger = ReductionLedger()
    comm.ledger = ledger
    v = ManyVector(arrays, global_lengths=[2 * comm.size] * n_sub,
                   comm=comm, batched_reductions=batched)
    return v, ledger


def _wrms_rounds(comm, batched):
    v, ledger = _dist(comm, 6, batched)
    w = v.copy().fill(1.0)
    val = wrms_norm(v, w)
    return val, ledger.global_reduction_count


def test_batched_wrms_is_one_round():
    for val, rounds in run_spmd(2, _wrms_rounds, True):
        assert rounds == 1
        assert val > 0


def test_unbatched_wrms_is_one_round_per_subvector():
    batched = [r for r in run_spmd(2, _wrms_rounds, True)]
    unbatched = [r for r in run_spmd(2, _wrms_rounds, False)]
    assert all(rounds == 6 for _, rounds in unbatched)
    # identical values either way, just more rounds
    assert batched[0][0].hex() == unbatched[0][0].hex()


def test_global_length_in_wrms_denominator():
    # same local data, denominator must use the global length
    def fn(comm):
        v = ManyVector([np.ones(2)], global_lengths=[2 * comm.size],
                       comm=comm)
        return wrms_norm(v, v.copy())
    assert run_spmd(4, fn)[0] == pytest.approx(1.0, abs=1e-15)


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    arrays = [rng.standard_normal(10), rng.standard_normal(1),
              rng.standard_normal(40)]
    path = tmp_path / "state.bin"
    write_snapshot(path, arrays)
    back = read_snapshot(path)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        np.testing.assert_array_equal(a, b)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


def test_snapshot_truncated(tmp_path):
    path = tmp_path / "cut.bin"
    write_snapshot(path, [np.arange(8.0)])
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)
    assert data[:8] == SNAPSHOT_MAGIC


def test_clone_empty_preserves_structure():
    v = mv([1.0], [[2.0, 3.0]], global_lengths=[1, 4],
           batched_reductions=False)
    c = v.clone_empty()
    assert [a.shape for a in c.arrays] == [(1,), (1, 2)]
    assert c.global_lengths == v.global_lengths
    assert c.global_length == 5
    assert c.batched_reductions is False
