"""The serve worker: pool entry points + the hot-circuit LRU.

Each pool worker (process or thread) keeps a process-global LRU of
evaluation *front ends* — translated + optimized circuit objects with
their pass logs — keyed by the request's group identity.  A warm
request skips MiniC -> uIR -> uopt entirely.  Nothing is kept for
the simulator: every run compiles its circuit, which costs less than
the hash that would look a kept plan up.

Only plain JSON documents cross the process boundary (request docs
in, response docs out); everything stateful stays worker-local.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import (EvaluationRequest, EvaluationResponse, Pipeline,
                   build_front, execute)
from ..api.requests import EVAL_SCHEMA
from ..errors import ReproError, error_family, failure_document
from ..supervise import maybe_chaos

#: Hot front-ends kept per worker.  Front ends are a few MB each at
#: most (graph + pass log); 32 designs comfortably covers a serving
#: mix while bounding a long-lived daemon's footprint.
LRU_CAPACITY = 32


class _FrontLRU:
    """A tiny thread-safe LRU of evaluation front ends."""

    def __init__(self, capacity: int = LRU_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Pipeline]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Pipeline]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry: Pipeline) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


_LRU = _FrontLRU()


def front_key(request: EvaluationRequest) -> str:
    """LRU identity of a request's front end: everything the
    translate+optimize stages depend on (and ``name``, which flows
    into the evaluation document)."""
    import hashlib
    doc = json.dumps(
        [request.workload, request.source, request.variant,
         request.passes, request.name],
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _pipeline_for(request: EvaluationRequest) -> Tuple[Pipeline, str]:
    """A :meth:`~repro.api.Pipeline.fork` of the (possibly cached)
    front end, so result state never leaks between evaluations."""
    key = front_key(request)
    front = _LRU.get(key)
    if front is not None:
        return front.fork(), "hit"
    front = build_front(request)
    _LRU.put(key, front)
    return front.fork(), "miss"


def run_payload(doc: Dict) -> Dict:
    """Pool entry point for one request document.

    Never raises: malformed requests and evaluation failures come
    back as error response documents (with a retry ``family``), so
    the scheduler can classify them.  ``meta.lru`` records whether
    the front end was served warm.
    """
    t0 = time.perf_counter()
    try:
        request = EvaluationRequest.from_json(doc)
    except ReproError as exc:
        return _error_response(exc, t0)
    maybe_chaos(request.describe())
    try:
        pipe, lru = _pipeline_for(request)
        response = execute(request, pipeline=pipe)
    except Exception as exc:  # noqa: BLE001 - the daemon must survive
        return _error_response(exc, t0, request.canonical_key())
    out = response.to_json()
    out["meta"]["lru"] = lru
    out["meta"]["pid"] = os.getpid()
    return out


def run_group_payload(docs: Sequence[Dict]) -> List[Dict]:
    """Pool entry point for a coalesced lane-group.

    Every document shares one :meth:`EvaluationRequest.group_key`
    (the scheduler guarantees it): same design, variant, passes, sim
    config and check policy, differing only in root arguments.  The
    group runs as ONE batched request (one lane per request) over a
    shared front end, and each request gets back the response
    document a scalar :func:`repro.api.execute` of that request would
    have produced — bit-identical payload, including the request's
    own ``canonical_key`` (per-lane identity carried to the wire).

    A front-end failure fails every request in the group with the
    same error document; per-lane simulation failures fail only their
    own request.
    """
    t0 = time.perf_counter()
    requests: List[Optional[EvaluationRequest]] = []
    outs: List[Optional[Dict]] = []
    for doc in docs:
        try:
            requests.append(EvaluationRequest.from_json(doc))
            outs.append(None)
        except ReproError as exc:
            requests.append(None)
            outs.append(_error_response(exc, t0))
    live = [(i, r) for i, r in enumerate(requests) if r is not None]
    if not live:
        return [out for out in outs if out is not None]
    base = live[0][1]
    for _, request in live:
        maybe_chaos(request.describe())
    try:
        pipe, lru = _pipeline_for(base)
        group = replace(base, args=None, args_list=[
            request.args if request.args is not None
            else pipe.default_args() for _, request in live])
        response = execute(group, pipeline=pipe)
    except Exception as exc:  # noqa: BLE001 - the daemon must survive
        response = EvaluationResponse(status="error",
                                      error=failure_document(exc))
    wall = round(time.perf_counter() - t0, 4)
    for lane, (i, request) in enumerate(live):
        meta = {"wall_s": wall}
        evaluation, error = None, response.error
        if response.ok:
            meta.update(lru=lru, pid=os.getpid(), coalesced=len(live),
                        lane=lane)
            evaluation = {k: v for k, v in response.lanes[lane].items()
                          if k != "lane"}
            error = evaluation.pop("error", None)
            if error is not None:
                evaluation = None
                error = dict(error)
                error.setdefault("family",
                                 error_family(error.get("error", "")))
        outs[i] = EvaluationResponse(
            status="ok" if error is None else "error",
            request_key=request.canonical_key(), evaluation=evaluation,
            error=error, meta=meta).to_json()
    return [out for out in outs if out is not None]


def run_docs(docs: Sequence[Dict]) -> List[Dict]:
    """Pool entry point for one lane-group the scheduler hands out:
    a lone request runs scalar (:func:`run_payload`), more run as one
    batch (:func:`run_group_payload`)."""
    if len(docs) == 1:
        return [run_payload(docs[0])]
    return run_group_payload(docs)


def _error_response(exc: BaseException, t0: float,
                    request_key: str = "") -> Dict:
    return {"schema": EVAL_SCHEMA, "status": "error",
            "request_key": request_key, "evaluation": None,
            "lanes": None, "error": failure_document(exc),
            "meta": {"wall_s": round(time.perf_counter() - t0, 4)}}
