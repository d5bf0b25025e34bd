"""Open-loop TCP load generator: one process, one thread, few sockets.

Events are due on a fixed schedule (``rate`` per second from the phase
start) whatever the server does.  The loop appends each due event's line
to its connection's output buffer, writes what the socket takes, and
reads replies; replies come back in order per connection, so each reply
line is matched to the oldest unanswered event on its connection.

Per event it records the *lateness* (how long after its due time the
generator queued it: the generator's own lag, not the server's) and the
*latency* (due time to the moment its reply line was read).  Events due
within the next :data:`LEAD_S` are queued at once: waits round up to
whole milliseconds, so waiting for each due time exactly would make the
generator late by design.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

LEAD_S = 0.001
#: A phase stops sending once more than this many seconds' worth of its
#: events are unanswered (the server cannot keep up).
BACKLOG_S = 1.0
#: Replies still outstanding this long after a phase's last send are
#: left as ``None``.
DRAIN_S = 5.0
#: Timeout of every blocking socket operation.
SOCKET_TIMEOUT_S = 10.0


@dataclass
class Phase:
    """What one scheduled phase sent and got back."""

    rate: float
    #: Global index of the phase's first event.
    first: int
    lateness: List[float] = field(default_factory=list)
    latency: List[Optional[float]] = field(default_factory=list)
    replies: List[Optional[bytes]] = field(default_factory=list)
    #: Events never sent because the backlog limit stopped the phase.
    unsent: int = 0
    cpu_s: float = 0.0


class OpenLoopClient:
    """Drives ``lines`` at a server over ``connections`` TCP sockets."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.socks = []
        self.selector = selectors.DefaultSelector()
        for index in range(connections):
            sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.selector.register(sock, selectors.EVENT_READ, index)
            self.socks.append(sock)

    def close(self) -> None:
        """Close every socket."""
        self.selector.close()
        for sock in self.socks:
            sock.close()

    def run(
        self,
        events: Sequence[Tuple[int, bytes]],
        rate: float,
        first: int = 0,
    ) -> Phase:
        """Send ``(connection, line)`` events at ``rate``; wait for replies.

        Sending stops early at a backlog of :data:`BACKLOG_S`; replies are
        awaited for :data:`DRAIN_S` after the last send.
        """
        n = len(events)
        phase = Phase(rate=rate, first=first)
        phase.lateness = [0.0] * n
        phase.latency = [None] * n
        phase.replies = [None] * n
        pending = [deque() for _ in self.socks]
        outbuf = [bytearray() for _ in self.socks]
        carry = [b""] * len(self.socks)
        due = [0.0] * n
        clock = time.perf_counter
        backlog = max(1, int(rate * BACKLOG_S))
        cpu0 = time.process_time()
        t0 = clock()
        sent = received = 0
        deadline = None
        while received < sent or sent < n:
            now = clock()
            while sent < n and t0 + sent / rate <= now + LEAD_S:
                if sent - received > backlog:
                    phase.unsent = n - sent
                    n = sent
                    break
                conn, line = events[sent]
                due[sent] = t0 + sent / rate
                phase.lateness[sent] = now - due[sent]
                outbuf[conn] += line
                pending[conn].append(sent)
                sent += 1
            for index, buf in enumerate(outbuf):
                if buf:
                    try:
                        done = self.socks[index].send(buf)
                    except BlockingIOError:
                        done = 0
                    del buf[:done]
            if sent >= n:
                if deadline is None:
                    deadline = clock() + DRAIN_S
                if clock() > deadline:
                    break
                timeout = 0.05
            else:
                timeout = max(0.0, t0 + sent / rate - LEAD_S - clock())
            if any(outbuf):
                timeout = min(timeout, 0.001)
            for key, _ in self.selector.select(timeout):
                index = key.data
                data = self.socks[index].recv(1 << 16)
                if not data:
                    raise ConnectionError("server closed a connection")
                stamp = clock()
                lines = (carry[index] + data).split(b"\n")
                carry[index] = lines.pop()
                for line in lines:
                    event = pending[index].popleft()
                    phase.replies[event] = line
                    phase.latency[event] = stamp - due[event]
                    received += 1
        phase.cpu_s = time.process_time() - cpu0
        del phase.lateness[n:], phase.latency[n:], phase.replies[n:]
        return phase


def http_get(host: str, port: int, path: str) -> Tuple[str, str]:
    """One blocking ``GET``; returns ``(status line, body)``."""
    with socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).decode().partition("\r\n\r\n")
    return head.split("\r\n")[0], body
