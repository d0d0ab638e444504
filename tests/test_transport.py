"""In-process message passing: collectives, counters, failure modes."""

import multiprocessing
import os
import socket
import threading
import time

import numpy as np
import pytest

from mrflow.harness import RunConfig, simulation_worker
from mrflow.transport import (ChannelTransport, Communicator, ProtocolError,
                              SocketEndpoint, TransportError, WorkerAborted,
                              run_spmd, run_spmd_sockets)
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


def _one_slow_step(comm, n_tasks):
    cfg = RunConfig(shape=(9, 8, 8), t_final=0.1, t_transient=0.0,
                    h_slow=0.1, fast_ratio=10.0)
    info = simulation_worker(comm, cfg, n_tasks, True)
    return info["field_sums"], info["counters"], info["reduction_rounds"]


def test_threads_vs_sockets_same_values():
    # 1 task has no socket pairs; 3 tasks lay out 3x1x1, so the y and z
    # halos are exchanged with the task itself
    for n_tasks, fn, args in [(3, _sum_worker, ()), (3, _gather_worker, ()),
                              (1, _one_slow_step, (1,)),
                              (3, _one_slow_step, (3,))]:
        np.testing.assert_equal(run_spmd_sockets(n_tasks, fn, *args),
                                run_spmd(n_tasks, fn, *args))


def test_point_to_point_and_can_recv():
    def fn(comm):
        if comm.rank == 0:
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
        comm.allreduce([0.0], "sum")
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


def _recv_within(transport, dst, src, tag, seconds):
    """What transport.recv returned or raised, or None if it was still
    blocked after `seconds`."""
    outcome = []

    def wait():
        try:
            outcome.append(transport.recv(dst, src, tag))
        except TransportError as exc:
            outcome.append(exc)
    threading.Thread(target=wait, daemon=True).start()
    deadline = time.monotonic() + seconds
    while not outcome and time.monotonic() < deadline:
        time.sleep(0.01)
    return outcome[0] if outcome else None


def test_closed_socket_peer_fails_recv_fast():
    # no processes: two endpoints on a socketpair, one of them shut down
    a, b = socket.socketpair()
    survivor = SocketEndpoint(0, 2, {1: a})
    peer = SocketEndpoint(1, 2, {0: b})
    peer.send(1, 0, "first", b"one")
    peer.send(1, 0, "second", b"two")
    peer.close()
    try:
        # what was sent before the shutdown is still delivered, in order
        assert survivor.recv(0, 1, "first") == b"one"
        assert survivor.recv(0, 1, "second") == b"two"
        start = time.monotonic()
        got = _recv_within(survivor, 0, 1, "third", 1.0)
        assert isinstance(got, TransportError), got
        assert str(got) == "task 0: connection to task 1 closed"
        assert time.monotonic() - start < 1.0
        # and every later recv from that peer fails the same way
        again = _recv_within(survivor, 0, 1, "fourth", 1.0)
        assert str(again) == "task 0: connection to task 1 closed"
    finally:
        survivor.close()


def _socket_inodes(pid):
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed since the listing
            continue
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


def _report_ends(comm):
    socks = comm.transport._conns.values()
    own = {os.fstat(s.fileno()).st_ino for s in socks}
    # the parent closes its copies once every worker has started
    deadline = time.monotonic() + 5.0
    while own & _socket_inodes(os.getppid()) and time.monotonic() < deadline:
        time.sleep(0.01)
    in_parent = own & _socket_inodes(os.getppid())
    comm.allreduce([0.0], "sum")  # every worker has dropped its others' ends
    return own, _socket_inodes("self"), in_parent, [s.gettimeout() for s in socks]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_socket_workers_hold_only_their_own_ends():
    # an end held by anyone but its owner would keep a dead owner's
    # connection open, so the survivors would never see its EOF
    reports = run_spmd_sockets(3, _report_ends)
    for rank, (own, _held, in_parent, timeouts) in enumerate(reports):
        assert len(own) == 2
        assert in_parent == set()
        for other, (_own, held, _in_parent, _t) in enumerate(reports):
            if other != rank:
                assert own & held == set(), (rank, other)
        # no timeout: a pump waits however long its peer stays silent
        assert timeouts == [None, None]


def test_abort_delivers_queued_messages_first():
    transport = ChannelTransport(2)
    transport.send(1, 0, "queued", b"x")
    transport.abort()
    assert transport.recv(0, 1, "queued") == b"x"
    for _ in range(2):
        assert isinstance(_recv_within(transport, 0, 1, "next", 1.0),
                          WorkerAborted)
    with pytest.raises(WorkerAborted):
        transport.send(0, 1, "late", b"y")


def test_socket_worker_failure():
    with pytest.raises(TransportError, match="socket worker"):
        run_spmd_sockets(2, _failing_worker)


def _failing_worker(comm):
    if comm.rank == 1:
        raise RuntimeError("child failed")
    comm.allreduce([0.0], "sum")


def _dying_worker(comm, code):
    if comm.rank == 1:
        os._exit(code)
    comm.allreduce([0.0], "sum")


@pytest.mark.parametrize("code", [7, 0])
def test_dead_socket_worker_is_reported_quickly(code):
    # rank 1 dies without reporting; rank 0 stays blocked in its recv
    start = time.monotonic()
    with pytest.raises(TransportError,
                       match=f"worker 1 exited with code {code} before"):
        run_spmd_sockets(2, _dying_worker, code, timeout=60.0)
    assert time.monotonic() - start < 10.0
    assert multiprocessing.active_children() == []


def _count_traffic(comm):
    comm.allreduce([1.0, 2.0], "sum")
    return comm.counters.snapshot()


def test_traffic_counters_count_messages():
    counts = run_spmd(3, _count_traffic)
    # snapshot -> (sends, recvs, bytes_sent)
    # rank 0: recv 2 parts, send 2 broadcasts; others: 1 send + 1 recv
    assert counts[0] == (2, 2, 32)
    for sends, recvs, nbytes in counts[1:]:
        assert (sends, recvs) == (1, 1)
        assert nbytes == 16
    # the Communicator counts, so the transport makes no difference
    assert run_spmd_sockets(3, _count_traffic) == counts


def test_ledger_counts_rounds_not_slots():
    def fn(comm):
        ledger = ReductionLedger()
        comm.ledger = ledger
        comm.allreduce(np.arange(6, dtype=float), "sum")
        comm.allgather([1.0])
        comm.allreduce([2.0], "max")
        return ledger.global_reduction_count
    assert run_spmd(2, fn) == [3, 3]
