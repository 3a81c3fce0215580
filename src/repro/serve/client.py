"""Synchronous client for the evaluation daemon.

One blocking call per request — connect, POST, stream NDJSON events,
return the terminal document.  Connection-level failures (refused,
reset, mid-stream EOF) retry with :class:`~repro.supervise.RetryPolicy`
backoff: evaluation requests are idempotent (same canonical key, same
payload), so a re-send against a restarted daemon is always safe.
Heartbeat events invoke an optional callback so CLIs can show
liveness; they also reset the read timeout, so a long evaluation on a
healthy server is distinguished from a hung one.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Callable, Dict, Optional, Tuple

from ..supervise import RetryPolicy
from ..errors import ReproError
from ..api.requests import EvaluationRequest, EvaluationResponse
from .protocol import PROTOCOL, encode_request, parse_event

DEFAULT_TIMEOUT_S = 300.0
DEFAULT_CONNECT_TIMEOUT_S = 5.0


class ServeConnectionError(ReproError):
    """Could not reach the daemon / connection died mid-request.
    Transient by classification: the client retries these."""


class ServeTimeout(ReproError):
    """No event (not even a heartbeat) within the read timeout."""


def parse_address(text: str) -> Tuple[str, object]:
    """``host:port``, ``:port``, ``port`` or ``unix:/path`` ->
    (family, connect argument)."""
    text = (text or "").strip()
    if not text:
        raise ReproError("empty serve address")
    if text.startswith("unix:"):
        path = text[5:]
        if not path:
            raise ReproError("unix: address needs a socket path")
        return "unix", path
    host, _, port = text.rpartition(":")
    host = host or "127.0.0.1"
    try:
        return "tcp", (host, int(port))
    except ValueError:
        raise ReproError(
            f"bad serve address {text!r} (want host:port or "
            f"unix:/path)")


class ServeClient:
    """A handle on one daemon address (no persistent connection)."""

    def __init__(self, address: str, *,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT_S,
                 retry: Optional[RetryPolicy] = None,
                 on_heartbeat: Optional[Callable[[Dict], None]] = None):
        self.family, self.target = parse_address(address)
        self.address = address
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retry = retry or RetryPolicy(max_attempts=3,
                                          base_delay=0.2,
                                          max_delay=2.0)
        self.on_heartbeat = on_heartbeat

    # -- verbs -------------------------------------------------------------
    def evaluate(self, request: EvaluationRequest
                 ) -> EvaluationResponse:
        """Evaluate one request (scalar or batched) on the daemon."""
        doc = self._call(f"/v1/{request.kind}", request.to_json())
        return EvaluationResponse.from_json(doc)

    def explore(self, spec: Dict) -> Dict:
        """Run a sweep spec; returns the explore report document."""
        return self._call("/v1/explore", spec)

    def report(self) -> Dict:
        return self._call("/v1/report", {})

    def health(self) -> Dict:
        return self._call("/v1/health", {})

    def shutdown(self) -> Dict:
        # No retry: a dead server IS the goal state here.
        return self._call("/v1/shutdown", {}, retry=False)

    # -- transport ---------------------------------------------------------
    def _call(self, path: str, body: Dict, *,
              retry: bool = True) -> Dict:
        attempts = self.retry.max_attempts if retry else 1
        last: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            try:
                return self._once(path, body)
            except ServeConnectionError as exc:
                last = exc
                if attempt < attempts:
                    time.sleep(self.retry.delay(attempt))
        raise ServeConnectionError(
            f"{last} (after {attempts} attempt(s) against "
            f"{self.address})")

    def _connect(self) -> socket.socket:
        try:
            if self.family == "unix":
                sock = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
                sock.settimeout(self.connect_timeout)
                sock.connect(self.target)
            else:
                sock = socket.create_connection(
                    self.target, timeout=self.connect_timeout)
        except OSError as exc:
            raise ServeConnectionError(
                f"cannot connect to {self.address}: {exc}")
        sock.settimeout(self.timeout)
        return sock

    def _once(self, path: str, body: Dict) -> Dict:
        sock = self._connect()
        try:
            try:
                sock.sendall(encode_request(path, body))
            except OSError as exc:
                raise ServeConnectionError(
                    f"send to {self.address} failed: {exc}")
            fh = sock.makefile("rb")
            self._read_status(fh)
            return self._read_events(fh)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _read_status(self, fh) -> None:
        line = self._readline(fh)
        parts = line.decode("latin-1", "replace").split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ServeConnectionError(
                f"not a serve daemon at {self.address}: "
                f"{line[:80]!r}")
        while True:
            header = self._readline(fh)
            if header in (b"\r\n", b"\n", b""):
                break

    def _read_events(self, fh) -> Dict:
        saw_hello = False
        while True:
            line = self._readline(fh).strip()
            if not line:
                raise ServeConnectionError(
                    f"{self.address} closed the stream before a "
                    f"result")
            event = parse_event(line)
            kind = event.get("event")
            if kind == "hello":
                if event.get("protocol") != PROTOCOL:
                    raise ReproError(
                        f"protocol skew: server speaks "
                        f"{event.get('protocol')!r}, client "
                        f"{PROTOCOL!r}")
                saw_hello = True
            elif kind == "heartbeat":
                if self.on_heartbeat is not None:
                    self.on_heartbeat(event)
            elif kind == "result":
                return event["response"]
            elif kind == "error":
                doc = {k: v for k, v in event.items()
                       if k != "event"}
                raise ReproError(
                    f"server rejected the request: "
                    f"{doc.get('error')}: {doc.get('message')}"
                    + ("" if saw_hello else " (no hello)"))
            # Unknown event kinds are skipped: additive protocol
            # evolution must not break old clients.

    def _readline(self, fh) -> bytes:
        try:
            return fh.readline()
        except socket.timeout:
            raise ServeTimeout(
                f"no event from {self.address} within "
                f"{self.timeout:g}s (not even a heartbeat)")
        except OSError as exc:
            raise ServeConnectionError(
                f"read from {self.address} failed: {exc}")


def response_payload_bytes(response_doc: Dict) -> bytes:
    """Canonical identity bytes of a response document (minus
    ``meta``): the serialization the dedup/batching tests and the CI
    smoke compare bit-for-bit."""
    payload = {k: v for k, v in response_doc.items() if k != "meta"}
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
