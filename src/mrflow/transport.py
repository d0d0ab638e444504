"""Point-to-point messaging and collectives for SPMD worker groups.

Every group is wired with one socket pair per pair of tasks, made before
its tasks start as threads (`run_spmd`) or forked processes
(`run_spmd_sockets`). Collectives sit on the point-to-point layer and
combine partials in rank order 0..n-1, so results are bit-identical
across runners.
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


@dataclass
class TrafficCounters:
    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0

    def snapshot(self):
        return (self.sends, self.recvs, self.bytes_sent)


def _read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _socket_pairs(n_tasks: int) -> list[dict]:
    """ends[rank][peer]: one connected socket pair per pair of ranks."""
    ends = [{} for _ in range(n_tasks)]
    for a in range(n_tasks):
        for b in range(a + 1, n_tasks):
            ends[a][b], ends[b][a] = socket.socketpair()
    return ends


# ---------------------------------------------------------------------------
# communicator: per-task facade used by the rest of the code

_REDUCE_OPS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


class Communicator:
    """One task's messaging and collectives over its own socket ends.

    conns maps each peer rank to this task's end of their pair, so a
    1-task communicator is `Communicator(0, 1, {})`. A thread per peer
    drains its socket into that peer's mailbox; a send to this task
    itself goes straight into its own. When a connection ends, its
    thread queues an error entry naming the peer after every message
    before it; every later recv from that peer raises it.

    Collective results are combined in rank order on task 0 and
    broadcast, so every task sees bit-identical values regardless of
    runner or scheduling. Each collective call counts as exactly one
    reduction round on the ledger a caller assigns to `ledger` (none by
    default), no matter how many scalars it carries. counters tallies
    this task's messages.
    """

    def __init__(self, rank: int, size: int, conns: dict):
        self.rank = rank
        self.size = size
        self.ledger = None
        self.counters = TrafficCounters()
        self._coll_seq = 0
        self._conns = conns  # peer rank -> socket
        self._boxes = [queue.Queue() for _ in range(size)]  # (tag, payload)
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

    def close(self):
        """Shut down and close every end; each pump then stops."""
        for sock in self._conns.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    # point-to-point ----------------------------------------------------
    def send(self, dst: int, tag, payload: bytes):
        if dst == self.rank:
            self._boxes[dst].put((str(tag), payload))
        else:
            tag_raw = str(tag).encode("utf-8")
            frame = _FRAME_HEADER.pack(len(tag_raw), len(payload)) + tag_raw + payload
            try:
                self._conns[dst].sendall(frame)
            except OSError:
                raise TransportError(f"task {self.rank}: connection to task"
                                     f" {dst} closed") from None
        self.counters.sends += 1
        self.counters.bytes_sent += len(payload)

    def recv(self, src: int, tag) -> bytes:
        """The next message from src, which must carry `tag`. Only an
        earlier send of this task fills its own box, so a receive from
        itself fails at once when the box is empty."""
        box = self._boxes[src]
        try:
            got_tag, payload = (box.get_nowait() if src == self.rank
                                else box.get(timeout=DEFAULT_TIMEOUT))
        except queue.Empty:
            if src == self.rank:
                raise ProtocolError(f"task {src}: receive from itself with no"
                                    f" message sent, tag={tag!r}") from None
            raise TransportError(f"recv timeout: task {self.rank} waiting on"
                                 f" {src} tag={tag!r}") from None
        if got_tag is None:
            box.put((None, payload))
            raise type(payload)(*payload.args)
        if got_tag != str(tag):
            raise ProtocolError(f"task {self.rank}: expected tag {tag!r} from"
                                f" task {src}, got {got_tag!r}")
        self.counters.recvs += 1
        return payload

    # collectives --------------------------------------------------------
    def _round(self, values: np.ndarray, combine) -> np.ndarray:
        self._coll_seq += 1
        tag = f"coll:{self._coll_seq}"
        values = np.ascontiguousarray(values, dtype=np.float64)
        if self.rank == 0:
            result = values.copy()
            for r in range(1, self.size):
                part = np.frombuffer(self.recv(r, tag), dtype=np.float64)
                result = combine(result, part.reshape(values.shape))
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

def _remaining(deadline):
    """Seconds left until a time.monotonic() deadline; None waits forever."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def run_spmd(n_tasks: int, fn, *args, timeout: float | None = 900.0):
    """Run fn(comm, *args) on n_tasks threads wired like the processes
    of `run_spmd_sockets`; return per-rank results.

    A task's ends close when fn returns or raises, after its failure is
    recorded, so its peers' receives fail at once naming it. The first
    failure recorded is re-raised: of two tasks failing independently,
    the first to fail, not the lowest rank. The group shares one
    `timeout` deadline (None: no deadline); every end is closed on the
    way out, so a timeout or an interrupt frees receives from peers.
    """
    comms = [Communicator(rank, n_tasks, own)
             for rank, own in enumerate(_socket_pairs(n_tasks))]
    results = [None] * n_tasks
    failures = []

    def work(comm):
        try:
            results[comm.rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - re-raised by run_spmd
            failures.append(exc)
        finally:
            comm.close()

    threads = [threading.Thread(target=work, args=(c,), name=f"task-{c.rank}")
               for c in comms]
    try:
        for t in threads:
            t.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in threads:
            t.join(timeout=_remaining(deadline))
        alive = [r for r, t in enumerate(threads) if t.is_alive()]
        if alive:
            raise TransportError(
                f"worker group timed out after {timeout:g} s; ranks {alive} still running")
    finally:
        for comm in comms:
            comm.close()
    if failures:
        raise failures[0]
    return results


def _socket_child(rank, n_tasks, conn, ends, fn, args):
    # a copy of a peer's end held here would hide that peer's EOF if it dies
    for r, own in enumerate(ends):
        if r != rank:
            for sock in own.values():
                sock.close()
    comm = Communicator(rank, n_tasks, ends[rank])
    try:
        conn.send((True, fn(comm, *args)))
    except BaseException as exc:  # noqa: BLE001
        conn.send((False, repr(exc)))
    finally:
        comm.close()


def _exited(procs, rank: int) -> TransportError:
    procs[rank].join(timeout=1.0)
    return TransportError(f"socket worker {rank} exited with code"
                          f" {procs[rank].exitcode} before reporting a result")


def _collect(conns, procs, deadline: float | None):
    """Yield (rank, message) once per worker as each message arrives.

    Waits on the pipes and the process sentinels together, so a worker
    that exits before sending, or the group deadline passing, raises
    TransportError at once.
    """
    pending = list(range(len(procs)))
    while pending:
        ready = connection.wait(
            [conns[r] for r in pending] + [procs[r].sentinel for r in pending],
            timeout=_remaining(deadline))
        if not ready:
            raise TransportError(
                f"socket workers {pending} did not report a result before the deadline")
        for r in list(pending):
            if conns[r].poll():
                pending.remove(r)
                yield r, conns[r].recv()
            elif procs[r].sentinel in ready:
                raise _exited(procs, r)


def run_spmd_sockets(n_tasks: int, fn, *args, timeout: float | None = 300.0):
    """Run fn(comm, *args) on n_tasks worker processes wired with sockets.

    The parent makes one connected socket pair per pair of ranks, as
    `run_spmd` does, before it starts the workers, and each worker keeps
    only its own ends. fn must be picklable (module-level). Each worker
    talks to the parent over its own pipe; a worker failure raises with
    its repr, a worker that exits without reporting raises with its exit
    code, and the whole group shares one `timeout` deadline (None: no
    deadline). No worker outlives the call.
    """
    ctx = mp.get_context("fork" if os.name == "posix" else "spawn")
    ends = _socket_pairs(n_tasks)
    pipes = [ctx.Pipe() for _ in range(n_tasks)]
    conns = [parent_end for parent_end, _ in pipes]
    procs = [ctx.Process(target=_socket_child,
                         args=(r, n_tasks, pipes[r][1], ends, fn, args))
             for r in range(n_tasks)]
    deadline = None if timeout is None else time.monotonic() + timeout
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
