"""In-process message passing: collectives, counters, failure modes."""

import threading
import time

import numpy as np
import pytest

from mrflow.transport import (ChannelTransport, Communicator, ProtocolError,
                              TransportError, run_spmd, run_spmd_sockets)
from mrflow.vectors import ReductionLedger


def _sum_worker(comm):
    return comm.allreduce([float(comm.rank + 1)], "sum")[0]


def _gather_worker(comm):
    return comm.allgather([float(comm.rank), float(10 * comm.rank)])


def _minmax_worker(comm):
    lo = comm.allreduce([float(comm.rank)], "min")[0]
    hi = comm.allreduce([float(comm.rank)], "max")[0]
    return lo, hi


def _multi_slot_worker(comm):
    vals = np.array([comm.rank + 0.5, comm.rank * 2.0, -1.0])
    return comm.allreduce(vals, "sum")


def test_allreduce_sum():
    results = run_spmd(4, _sum_worker)
    assert results == [10.0] * 4


def test_allreduce_min_max():
    for lo, hi in run_spmd(3, _minmax_worker):
        assert (lo, hi) == (0.0, 2.0)


def test_allreduce_multi_slot_one_round():
    for out in run_spmd(3, _multi_slot_worker):
        np.testing.assert_array_equal(out, [4.5, 6.0, -3.0])


def test_allgather_rank_major():
    for out in run_spmd(3, _gather_worker):
        np.testing.assert_array_equal(
            out, [[0.0, 0.0], [1.0, 10.0], [2.0, 20.0]])


def test_single_task_collectives():
    def fn(comm):
        return (comm.allreduce([3.0], "sum")[0], comm.allgather([7.0]))
    s, g = run_spmd(1, fn)[0]
    assert s == 3.0
    np.testing.assert_array_equal(g, [[7.0]])


def test_results_bit_identical_across_ranks():
    # rank order on task 0 pins the combination, so the broadcast values
    # match bit for bit even with non-associative float sums
    def fn(comm):
        vals = [1e16 * (comm.rank == 0) + 0.1 * comm.rank]
        return comm.allreduce(vals, "sum")[0]
    results = run_spmd(4, fn)
    assert len({r.hex() for r in results}) == 1


def test_threads_vs_sockets_same_values():
    thread_res = run_spmd(3, _sum_worker)
    socket_res = run_spmd_sockets(3, _sum_worker)
    assert thread_res == socket_res
    tg = run_spmd(3, _gather_worker)
    sg = run_spmd_sockets(3, _gather_worker)
    np.testing.assert_array_equal(tg[0], sg[0])


def test_point_to_point_and_can_recv():
    def fn(comm):
        if comm.rank == 0:
            assert not comm.can_recv(1)
            comm.send(1, "data", b"hello")
            return comm.recv(1, "reply")
        payload = comm.recv(0, "data")
        comm.send(0, "reply", payload.upper())
        return payload
    results = run_spmd(2, fn)
    assert results == [b"HELLO", b"hello"]


def test_tag_mismatch_is_protocol_error():
    transport = ChannelTransport(2)
    a = Communicator(transport, 0, 2)
    b = Communicator(transport, 1, 2)
    a.send(1, "right", b"x")
    with pytest.raises(ProtocolError):
        b.recv(0, "wrong")


def test_worker_exception_propagates():
    def fn(comm):
        if comm.rank == 2:
            raise ValueError("boom on rank 2")
        comm.barrier()
    with pytest.raises(ValueError, match="boom on rank 2"):
        run_spmd(3, fn)


def test_abort_unblocks_peers_quickly():
    # the failing rank must not leave rank 0 hanging in recv until timeout
    def fn(comm):
        if comm.rank == 1:
            raise RuntimeError("early exit")
        comm.allreduce([1.0], "sum")
    with pytest.raises(RuntimeError, match="early exit"):
        run_spmd(2, fn, timeout=30.0)


def test_group_timeout_is_one_shared_deadline():
    # rank 0 finishes just inside the timeout; a join per thread would
    # then wait another full timeout for rank 1 (about 1.9 s in all)
    release = threading.Event()

    def fn(comm):
        if comm.rank == 0:
            time.sleep(0.9)
        else:
            release.wait(30.0)
    start = time.monotonic()
    try:
        with pytest.raises(TransportError, match=r"ranks \[1\] still running"):
            run_spmd(2, fn, timeout=1.0)
        assert time.monotonic() - start < 1.5
    finally:
        release.set()


def test_socket_worker_failure():
    with pytest.raises(TransportError, match="socket worker"):
        run_spmd_sockets(2, _failing_worker)


def _failing_worker(comm):
    if comm.rank == 1:
        raise RuntimeError("child failed")
    comm.barrier()


def test_traffic_counters_count_messages():
    def fn(comm):
        comm.allreduce([1.0, 2.0], "sum")
        return comm.counters.snapshot()
    counts = run_spmd(3, fn)
    # snapshot -> (sends, recvs, bytes_sent)
    # rank 0: recv 2 parts, send 2 broadcasts; others: 1 send + 1 recv
    assert counts[0][:2] == (2, 2)
    for sends, recvs, nbytes in counts[1:]:
        assert (sends, recvs) == (1, 1)
        assert nbytes == 16


def test_ledger_counts_rounds_not_slots():
    def fn(comm):
        ledger = ReductionLedger()
        comm.ledger = ledger
        comm.allreduce(np.arange(6, dtype=float), "sum")
        comm.allgather([1.0])
        comm.allreduce([2.0], "max")
        return ledger.global_reduction_count
    assert run_spmd(2, fn) == [3, 3]


def test_barrier_orders_sides():
    import threading
    hits = []
    lock = threading.Lock()

    def fn(comm):
        with lock:
            hits.append(("pre", comm.rank))
        comm.barrier()
        with lock:
            hits.append(("post", comm.rank))
    run_spmd(4, fn)
    first_post = min(i for i, h in enumerate(hits) if h[0] == "post")
    assert all(h[0] == "pre" for h in hits[:first_post])
    assert first_post == 4
