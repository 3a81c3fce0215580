"""repro.serve — the accelerator-evaluation daemon.

Long-lived serving front end over :mod:`repro.api`'s typed
request/response schema: an asyncio daemon (:mod:`.server`) that
dedupes identical in-flight requests, coalesces compatible scalar
requests into batched lane-groups, runs them on the supervised
worker pool sweeps also use (:mod:`repro.supervise`: retry, suspect
isolation, quarantine, deadlines), and keeps hot circuit front ends
pinned in a per-worker LRU (:mod:`.worker`).  :mod:`.client` is the
synchronous client library; :mod:`.protocol` the HTTP-lite/NDJSON
framing.

Quickstart::

    repro serve --port 8651 &
    repro client evaluate fib --passes op_fusion --address :8651

or in code::

    from repro.serve import ServeClient, start_in_thread
    handle = start_in_thread(executor="thread")
    client = ServeClient(handle.address)
    response = client.evaluate(request_for("fib", "op_fusion"))
"""

from .client import (ServeClient, ServeConnectionError, ServeTimeout,
                     parse_address, response_payload_bytes)
from .protocol import PROTOCOL, ProtocolError
from .scheduler import COUNTER_KEYS, Scheduler
from .server import ServeServer, ServerHandle, start_in_thread

__all__ = [
    "COUNTER_KEYS", "PROTOCOL", "ProtocolError", "Scheduler",
    "ServeClient", "ServeConnectionError", "ServeServer",
    "ServeTimeout", "ServerHandle", "parse_address",
    "response_payload_bytes", "start_in_thread",
]
