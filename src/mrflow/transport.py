"""Point-to-point messaging and collectives for SPMD worker groups.

Two interchangeable transports move bytes between tasks: in-process
channel queues (the default; one Python thread per task) and TCP
sockets between spawned processes. Both expose the same primitives, and
collectives are built on top of the point-to-point layer so reduction
results are bit-identical across transports: partials are always
combined in rank order 0..n-1.
"""

from __future__ import annotations

import os
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TIMEOUT = 180.0

_FRAME_HEADER = struct.Struct("<III")  # src, taglen, paylen


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
# in-process channel transport

class ChannelTransport:
    """Mailbox queues between threads of one process. boxes[dst][src]."""

    def __init__(self, size: int):
        self.size = size
        self._boxes = [[queue.Queue() for _ in range(size)] for _ in range(size)]
        self._abort = threading.Event()
        self.counters = [TrafficCounters() for _ in range(size)]

    def abort(self):
        self._abort.set()

    def send(self, src: int, dst: int, tag, payload: bytes):
        if self._abort.is_set():
            raise WorkerAborted("group aborted")
        self._boxes[dst][src].put((tag, payload))
        c = self.counters[src]
        c.sends += 1
        c.bytes_sent += len(payload)

    def recv(self, dst: int, src: int, tag, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        deadline = time.monotonic() + timeout
        box = self._boxes[dst][src]
        while True:
            try:
                got_tag, payload = box.get(timeout=0.05)
                break
            except queue.Empty:
                if self._abort.is_set():
                    raise WorkerAborted("group aborted")
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"recv timeout: task {dst} waiting on {src} tag={tag!r}")
        if got_tag != tag:
            raise ProtocolError(f"expected tag {tag!r}, got {got_tag!r}")
        self.counters[dst].recvs += 1
        return payload

    def can_recv(self, dst: int, src: int) -> bool:
        return not self._boxes[dst][src].empty()


# ---------------------------------------------------------------------------
# socket transport (multi-process)

class SocketEndpoint:
    """One task's end of a fully connected TCP mesh.

    A background thread per peer drains the socket into local queues, so
    recv semantics match ChannelTransport exactly.
    """

    def __init__(self, rank: int, size: int, conns: dict):
        self.rank = rank
        self.size = size
        self._conns = conns  # peer rank -> socket
        self._boxes = [queue.Queue() for _ in range(size)]
        self.counters = TrafficCounters()
        self._abort = threading.Event()
        self._pumps = []
        for peer, sock in conns.items():
            t = threading.Thread(target=self._pump, args=(peer, sock), daemon=True)
            t.start()
            self._pumps.append(t)

    def _pump(self, peer, sock):
        try:
            while True:
                head = _read_exact(sock, _FRAME_HEADER.size)
                if head is None:
                    return
                src, taglen, paylen = _FRAME_HEADER.unpack(head)
                tag_raw = _read_exact(sock, taglen)
                payload = _read_exact(sock, paylen) if paylen else b""
                if tag_raw is None or (paylen and payload is None):
                    return
                self._boxes[src].put((tag_raw.decode("utf-8"), payload))
        except OSError:
            return

    def send(self, src: int, dst: int, tag, payload: bytes):
        assert src == self.rank
        tag_raw = str(tag).encode("utf-8")
        if dst == self.rank:
            self._boxes[self.rank].put((tag_raw.decode("utf-8"), payload))
        else:
            frame = _FRAME_HEADER.pack(src, len(tag_raw), len(payload)) + tag_raw + payload
            self._conns[dst].sendall(frame)
        self.counters.sends += 1
        self.counters.bytes_sent += len(payload)

    def recv(self, dst: int, src: int, tag, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        assert dst == self.rank
        try:
            got_tag, payload = self._boxes[src].get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"recv timeout: task {dst} waiting on {src} tag={tag!r}")
        if got_tag != str(tag):
            raise ProtocolError(f"expected tag {tag!r}, got {got_tag!r}")
        self.counters.recvs += 1
        return payload

    def can_recv(self, dst: int, src: int) -> bool:
        return not self._boxes[src].empty()

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


def connect_mesh(rank: int, size: int, port_map: dict) -> SocketEndpoint:
    """Build the all-to-all socket mesh for one task.

    port_map: rank -> (host, port) of that rank's listener. Lower ranks
    dial higher ranks; the listener side accepts and learns the caller's
    rank from a hello frame.
    """
    listener = port_map.pop("_listener_%d" % rank)
    conns = {}
    # dial peers with larger rank
    for peer in range(rank + 1, size):
        host, port = port_map[peer]
        for attempt in range(50):
            try:
                s = socket.create_connection((host, port), timeout=10)
                break
            except OSError:
                time.sleep(0.1)
        else:
            raise TransportError(f"task {rank} could not reach task {peer}")
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.sendall(struct.pack("<I", rank))
        conns[peer] = s
    # accept peers with smaller rank
    for _ in range(rank):
        s, _addr = listener.accept()
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        raw = _read_exact(s, 4)
        peer = struct.unpack("<I", raw)[0]
        conns[peer] = s
    listener.close()
    return SocketEndpoint(rank, size, conns)


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
    reduction round on the attached ledger, no matter how many scalars
    it carries.
    """

    def __init__(self, transport, rank: int, size: int, ledger=None):
        self.transport = transport
        self.rank = rank
        self.size = size
        self.ledger = ledger
        self._coll_seq = 0

    # point-to-point ----------------------------------------------------
    def send(self, dst: int, tag, payload: bytes):
        self.transport.send(self.rank, dst, tag, payload)

    def recv(self, src: int, tag) -> bytes:
        return self.transport.recv(self.rank, src, tag)

    def can_recv(self, src: int) -> bool:
        return self.transport.can_recv(self.rank, src)

    @property
    def counters(self) -> TrafficCounters:
        if isinstance(self.transport, ChannelTransport):
            return self.transport.counters[self.rank]
        return self.transport.counters

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
            self.ledger.record_round(values.size)
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

    def barrier(self):
        self._coll_seq += 1
        tag = f"bar:{self._coll_seq}"
        if self.size == 1:
            return
        if self.rank == 0:
            for r in range(1, self.size):
                self.recv(r, tag)
            for r in range(1, self.size):
                self.send(r, tag, b"")
        else:
            self.send(0, tag, b"")
            self.recv(0, tag)


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


def _socket_child(rank, n_tasks, port_q, map_q, result_q, fn, args):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(n_tasks)
    port_q.put((rank, listener.getsockname()))
    port_map = map_q.get(timeout=60)
    port_map["_listener_%d" % rank] = listener
    endpoint = connect_mesh(rank, n_tasks, port_map)
    comm = Communicator(endpoint, rank, n_tasks)
    try:
        result = fn(comm, *args)
        result_q.put((rank, True, result))
    except BaseException as exc:  # noqa: BLE001
        result_q.put((rank, False, repr(exc)))
    finally:
        endpoint.close()


def run_spmd_sockets(n_tasks: int, fn, *args, timeout: float = 300.0):
    """Run fn(comm, *args) on n_tasks processes wired with TCP sockets.

    fn must be picklable (module-level). Results come back through a
    queue; a worker failure raises with its repr.
    """
    import multiprocessing as mp

    ctx = mp.get_context("fork" if os.name == "posix" else "spawn")
    port_q = ctx.Queue()
    map_qs = [ctx.Queue() for _ in range(n_tasks)]
    result_q = ctx.Queue()
    procs = [
        ctx.Process(target=_socket_child,
                    args=(r, n_tasks, port_q, map_qs[r], result_q, fn, args))
        for r in range(n_tasks)
    ]
    for p in procs:
        p.start()
    addr_map = {}
    for _ in range(n_tasks):
        rank, addr = port_q.get(timeout=timeout)
        addr_map[rank] = addr
    for q in map_qs:
        q.put(dict(addr_map))
    results = [None] * n_tasks
    errors = []
    pending = n_tasks
    while pending and not errors:
        rank, ok, value = result_q.get(timeout=timeout)
        pending -= 1
        if ok:
            results[rank] = value
        else:
            # first failure wins; siblings blocked on the dead peer get killed
            errors.append((rank, value))
    for p in procs:
        p.join(timeout=1.0 if errors else 30.0)
        if p.is_alive():
            p.terminate()
            p.join(timeout=10)
    if errors:
        rank, msg = errors[0]
        raise TransportError(f"socket worker {rank} failed: {msg}")
    return results
