"""Point-to-point messaging and collectives for SPMD worker groups.

Two interchangeable transports move bytes between tasks: in-process
channel queues (the default; one Python thread per task) and socket
pairs between worker processes. Both expose the same primitives, and
collectives are built on top of the point-to-point layer so reduction
results are bit-identical across transports: partials are always
combined in rank order 0..n-1.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection

import numpy as np

DEFAULT_TIMEOUT = 180.0
FAILURE_GRACE = 1.0   # s a socket worker's failure waits for a peer's exit

_FRAME_HEADER = struct.Struct("<II")  # taglen, paylen


class TransportError(RuntimeError):
    pass


class ProtocolError(TransportError):
    """Out-of-order or mismatched message traffic."""


class WorkerAborted(TransportError):
    """Another task in the group failed; this task was asked to stop."""


@dataclass
class TrafficCounters:
    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0

    def snapshot(self):
        return (self.sends, self.recvs, self.bytes_sent)


# ---------------------------------------------------------------------------
# mailboxes: one queue per (receiver, sender) pair of (tag, payload) entries

def _take(box: queue.Queue, dst: int, src: int, tag) -> bytes:
    """The next message of one mailbox, which must carry `tag`. An error
    entry (None, exception) is raised when reached, after every message
    queued before it, and stays in place for later calls."""
    try:
        got_tag, payload = box.get(timeout=DEFAULT_TIMEOUT)
    except queue.Empty:
        raise TransportError(
            f"recv timeout: task {dst} waiting on {src} tag={tag!r}") from None
    if got_tag is None:
        box.put((None, payload))
        raise type(payload)(*payload.args)
    if got_tag != str(tag):
        raise ProtocolError(f"expected tag {tag!r}, got {got_tag!r}")
    return payload


# ---------------------------------------------------------------------------
# in-process channel transport

class ChannelTransport:
    """Mailbox queues between threads of one process. boxes[dst][src]."""

    def __init__(self, size: int):
        self._boxes = [[queue.Queue() for _ in range(size)] for _ in range(size)]
        self._abort = threading.Event()

    def abort(self):
        """Fail later sends, and each recv once its mailbox is drained."""
        self._abort.set()
        for row in self._boxes:
            for box in row:
                box.put((None, WorkerAborted("group aborted")))

    def send(self, src: int, dst: int, tag, payload: bytes):
        if self._abort.is_set():
            raise WorkerAborted("group aborted")
        self._boxes[dst][src].put((str(tag), payload))

    def recv(self, dst: int, src: int, tag) -> bytes:
        return _take(self._boxes[dst][src], dst, src, tag)


# ---------------------------------------------------------------------------
# socket transport (multi-process)

class SocketEndpoint:
    """One task's ends of a fully connected mesh of stream sockets.

    A background thread per peer drains the socket into local queues, so
    recv semantics match ChannelTransport exactly. When a peer's
    connection ends, its thread queues an error entry naming that peer.
    """

    def __init__(self, rank: int, size: int, conns: dict):
        self.rank = rank
        self._conns = conns  # peer rank -> socket
        self._boxes = [queue.Queue() for _ in range(size)]
        for peer, sock in conns.items():
            threading.Thread(target=self._pump, args=(peer, sock),
                             daemon=True).start()

    def _pump(self, peer, sock):
        try:
            while (head := _read_exact(sock, _FRAME_HEADER.size)) is not None:
                taglen, paylen = _FRAME_HEADER.unpack(head)
                tag_raw = _read_exact(sock, taglen)
                payload = _read_exact(sock, paylen)
                if tag_raw is None or payload is None:
                    break
                self._boxes[peer].put((tag_raw.decode("utf-8"), payload))
        except OSError:
            pass
        self._boxes[peer].put((None, TransportError(
            f"task {self.rank}: connection to task {peer} closed")))

    def send(self, src: int, dst: int, tag, payload: bytes):
        assert src == self.rank
        tag_raw = str(tag).encode("utf-8")
        if dst == self.rank:
            self._boxes[self.rank].put((str(tag), payload))
        else:
            frame = _FRAME_HEADER.pack(len(tag_raw), len(payload)) + tag_raw + payload
            self._conns[dst].sendall(frame)

    def recv(self, dst: int, src: int, tag) -> bytes:
        assert dst == self.rank
        return _take(self._boxes[src], dst, src, tag)

    def close(self):
        for sock in self._conns.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()


def _read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


# ---------------------------------------------------------------------------
# communicator: per-task facade used by the rest of the code

_REDUCE_OPS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


class Communicator:
    """One task's handle for messaging and collectives.

    Collective results are combined in rank order on task 0 and
    broadcast, so every task sees bit-identical values regardless of
    transport or scheduling. Each collective call counts as exactly one
    reduction round on the ledger a caller assigns to `ledger` (none by
    default), no matter how many scalars it carries. counters tallies
    this task's messages, whatever the transport.
    """

    def __init__(self, transport, rank: int, size: int):
        self.transport = transport
        self.rank = rank
        self.size = size
        self.ledger = None
        self.counters = TrafficCounters()
        self._coll_seq = 0

    # point-to-point ----------------------------------------------------
    def send(self, dst: int, tag, payload: bytes):
        self.transport.send(self.rank, dst, tag, payload)
        self.counters.sends += 1
        self.counters.bytes_sent += len(payload)

    def recv(self, src: int, tag) -> bytes:
        payload = self.transport.recv(self.rank, src, tag)
        self.counters.recvs += 1
        return payload

    # collectives --------------------------------------------------------
    def _round(self, values: np.ndarray, combine) -> np.ndarray:
        self._coll_seq += 1
        tag = f"coll:{self._coll_seq}"
        values = np.ascontiguousarray(values, dtype=np.float64)
        if self.size == 1:
            result = values.copy()
        elif self.rank == 0:
            acc = values.copy()
            for r in range(1, self.size):
                part = np.frombuffer(self.recv(r, tag), dtype=np.float64)
                acc = combine(acc, part.reshape(values.shape))
            result = acc
            blob = result.tobytes()
            for r in range(1, self.size):
                self.send(r, tag, blob)
        else:
            self.send(0, tag, values.tobytes())
            result = np.frombuffer(self.recv(0, tag), dtype=np.float64).reshape(values.shape)
        if self.ledger is not None:
            self.ledger.record_round()
        return result

    def allreduce(self, values, op: str = "sum") -> np.ndarray:
        """Slot-wise reduction of a 1-D array of scalars. One round."""
        return self._round(np.atleast_1d(np.asarray(values, dtype=np.float64)),
                           _REDUCE_OPS[op])

    def allgather(self, values) -> np.ndarray:
        """Concatenate each task's 1-D array, rank-major. One round."""
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        out = np.zeros((self.size, values.size))
        out[self.rank] = values
        return self._round(out, np.add)


# ---------------------------------------------------------------------------
# SPMD runners

def run_spmd(n_tasks: int, fn, *args, timeout: float = 900.0):
    """Run fn(comm, *args) on n_tasks in-process workers; return per-rank results.

    The first worker exception aborts the group and is re-raised. The
    whole group shares one `timeout` deadline.
    """
    transport = ChannelTransport(n_tasks)
    results = [None] * n_tasks
    failures = []

    def work(rank):
        comm = Communicator(transport, rank, n_tasks)
        try:
            results[rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - must unblock siblings
            failures.append((rank, exc))
            transport.abort()

    threads = [threading.Thread(target=work, args=(r,), name=f"task-{r}")
               for r in range(n_tasks)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = [r for r, t in enumerate(threads) if t.is_alive()]
    if alive:
        transport.abort()
        raise TransportError(
            f"worker group timed out after {timeout:g} s; ranks {alive} still running")
    if failures:
        rank, exc = min(failures, key=lambda f: f[0])
        if isinstance(exc, WorkerAborted) and len(failures) > 1:
            rank, exc = [f for f in failures if not isinstance(f[1], WorkerAborted)][0]
        raise exc
    return results


def _socket_child(rank, n_tasks, conn, ends, fn, args):
    # a copy of a peer's end held here would hide that peer's EOF if it dies
    for r, own in enumerate(ends):
        if r != rank:
            for sock in own.values():
                sock.close()
    endpoint = SocketEndpoint(rank, n_tasks, ends[rank])
    comm = Communicator(endpoint, rank, n_tasks)
    try:
        result = fn(comm, *args)
        conn.send((True, result))
    except BaseException as exc:  # noqa: BLE001
        conn.send((False, repr(exc)))
    finally:
        endpoint.close()


def _exited(procs, rank: int) -> TransportError:
    procs[rank].join(timeout=1.0)
    return TransportError(f"socket worker {rank} exited with code"
                          f" {procs[rank].exitcode} before reporting a result")


def _collect(conns, procs, deadline: float):
    """Yield (rank, message) once per worker as each message arrives.

    Waits on the pipes and the process sentinels together, so a worker
    that exits before sending, or the group deadline passing, raises
    TransportError at once.
    """
    pending = list(range(len(procs)))
    while pending:
        ready = connection.wait(
            [conns[r] for r in pending] + [procs[r].sentinel for r in pending],
            timeout=max(0.0, deadline - time.monotonic()))
        if not ready:
            raise TransportError(
                f"socket workers {pending} did not report a result before the deadline")
        for r in list(pending):
            if conns[r].poll():
                pending.remove(r)
                yield r, conns[r].recv()
            elif procs[r].sentinel in ready:
                raise _exited(procs, r)


def run_spmd_sockets(n_tasks: int, fn, *args, timeout: float = 300.0):
    """Run fn(comm, *args) on n_tasks worker processes wired with sockets.

    The parent makes one connected socket pair per pair of ranks before
    it starts the workers, and each worker keeps only its own ends. fn
    must be picklable (module-level). Each worker talks to the parent
    over its own pipe; a worker failure raises with its repr, a worker
    that exits without reporting raises with its exit code, and the
    whole group shares one `timeout` deadline. No worker outlives the
    call.
    """
    ctx = mp.get_context("fork" if os.name == "posix" else "spawn")
    ends = [{} for _ in range(n_tasks)]  # ends[rank][peer] -> socket
    for a in range(n_tasks):
        for b in range(a + 1, n_tasks):
            ends[a][b], ends[b][a] = socket.socketpair()
    pipes = [ctx.Pipe() for _ in range(n_tasks)]
    conns = [parent_end for parent_end, _ in pipes]
    procs = [ctx.Process(target=_socket_child,
                         args=(r, n_tasks, pipes[r][1], ends, fn, args))
             for r in range(n_tasks)]
    deadline = time.monotonic() + timeout
    for p in procs:
        p.start()
    for own in ends:  # the workers own the ends now; see _socket_child
        for sock in own.values():
            sock.close()
    done = False
    try:
        results = {}
        for rank, (ok, value) in _collect(conns, procs, deadline):
            if not ok:
                # a peer that exits without reporting is the likelier cause
                # of this failure, so give its exit a moment to show
                rest = set(range(n_tasks)) - set(results) - {rank}
                gone = connection.wait([procs[r].sentinel for r in rest],
                                       FAILURE_GRACE)
                for r in rest:
                    if procs[r].sentinel in gone and not conns[r].poll():
                        raise _exited(procs, r)
                raise TransportError(f"socket worker {rank} failed: {value}")
            results[rank] = value
        done = True
        return [results[r] for r in range(n_tasks)]
    finally:
        for p in procs:
            if done:
                p.join(timeout=30.0)
            if p.is_alive():
                p.terminate()
            p.join(timeout=10)
        for parent_end, child_end in pipes:
            parent_end.close()
            child_end.close()
