"""Persistent content-addressed result cache for design-space sweeps.

Two-level scheme:

* **objects** — ``<root>/objects/<k:2>/<key>.json``; ``key`` is the
  SHA-256 of the *content identity* of an evaluation: the fingerprint
  of the circuit as built (:func:`repro.core.serialize.
  circuit_fingerprint` — display-name-free, order-sensitive) plus
  everything else that determines the result: workload identity
  (name, variant, args), the semantically relevant
  :class:`~repro.sim.SimParams` fields, whether the golden check ran,
  and the cache schema version.  The object document holds only
  content-determined fields of the wire evaluation document
  (:data:`STORED_FIELDS`: cycles, results, verification, synthesis),
  so a hit is bit-identical to a fresh run, stamped with the schema,
  its key and the circuit fingerprint it was stored under.
* **request index** — ``<root>/index.json``; maps the SHA-256 of the
  *request* (workload, variant, pass-spec string, sim config, check)
  to the content key it produced last time.  Warm re-runs are served
  from the index without translating or optimizing anything;
  overlapping sweeps whose different requests build the same circuit
  (e.g. a pass that finds nothing to do) still share one object via
  the content key.

Object writes are atomic (temp file + ``os.replace``) so parallel
workers may share a cache directory; the index is only written by the
coordinating parent process.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, Optional

CACHE_SCHEMA = "repro.dse-cache/v2"

#: Fields of a wire evaluation document that a stored object keeps:
#: exactly those its content key determines (no names, no pass log).
STORED_FIELDS = ("cycles", "results", "verified", "synth")

#: SimParams fields that determine simulation *results* (not wall-time
#: behavior like watchdogs or observability sinks).
SIM_KEY_FIELDS = ("kernel", "max_cycles", "deadlock_window",
                  "loop_invocation_window", "decoupled_queue_depth",
                  "observe")


def sim_key_dict(params) -> Dict[str, object]:
    """The result-determining subset of a SimParams, JSON-shaped."""
    return {name: getattr(params, name) for name in SIM_KEY_FIELDS}


def _digest(doc: Dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def content_key(fingerprint: str, workload: str, variant: str,
                args, sim: Dict[str, object], check: bool = True) -> str:
    """Content identity of one evaluation -> object key.  ``check``
    is part of it: an unchecked result (``verified`` None) must never
    answer a checked sweep."""
    return _digest({
        "schema": CACHE_SCHEMA,
        "circuit": fingerprint,
        "workload": workload,
        "variant": variant,
        "args": [repr(a) for a in args],
        "sim": sim,
        "check": check,
    })


def request_key(workload: str, variant: str, pass_spec: str,
                args, sim: Dict[str, object], check: bool = True) -> str:
    """Cheap pre-translation identity of one request -> index key."""
    return _digest({
        "schema": CACHE_SCHEMA,
        "workload": workload,
        "variant": variant,
        "passes": pass_spec,
        "args": [repr(a) for a in args],
        "sim": sim,
        "check": check,
    })


#: Keys of :attr:`ResultCache.counts` (all always present, start at 0).
COUNT_KEYS = ("object_hits", "object_misses", "object_corrupt",
              "index_hits", "index_misses", "write_errors")


class ResultCache:
    """On-disk object store + request index (see module docstring).

    Every lookup is tallied in :attr:`counts`: object-store hits,
    misses (no file), corrupt reads (unparsable or wrong-schema
    documents — served as misses but counted separately so a decaying
    cache is visible), request-index hits/misses, and write errors.
    Workers ship their counts back to the sweep coordinator, which
    aggregates them into the explore report and the telemetry metrics
    registry.

    Two robustness behaviors:

    * a **corrupt object is quarantined on first read** — the file is
      renamed to ``<key>.json.corrupt`` so each corruption is counted
      once and every later lookup is an ordinary miss that re-evaluates
      and overwrites, instead of re-parsing the same bad bytes forever;
    * **write failures degrade, never abort** — if the disk is full or
      the directory unwritable, ``put``/``save_index`` fall back to an
      in-memory overlay with a one-time warning (``write_errors``
      counts every failed write).  The sweep completes; only
      persistence is lost.
    """

    def __init__(self, root: str):
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.index_path = os.path.join(root, "index.json")
        self._index: Optional[Dict[str, str]] = None
        self.counts: Dict[str, int] = {k: 0 for k in COUNT_KEYS}
        #: In-memory overlay used when disk writes fail (degraded mode).
        self._mem: Dict[str, Dict] = {}
        self._warned_degraded = False
        try:
            os.makedirs(self.objects_dir, exist_ok=True)
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        self.counts["write_errors"] += 1
        if not self._warned_degraded:
            self._warned_degraded = True
            print(f"warning: result cache {self.root} is not "
                  f"writable ({exc}); caching in memory only for "
                  f"this process", file=sys.stderr)

    @property
    def degraded(self) -> bool:
        """True once any disk write failed and the in-memory overlay
        took over persistence for this process."""
        return self._warned_degraded

    # -- object store ----------------------------------------------------
    def _object_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    def _quarantine(self, path: str) -> None:
        """Rename a corrupt object out of the lookup path (best
        effort): later reads miss instead of re-counting corruption."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass

    def get(self, key: str) -> Optional[Dict]:
        """Object document for ``key``, or None (corrupt = miss)."""
        if key in self._mem:
            self.counts["object_hits"] += 1
            return self._mem[key]
        path = self._object_path(key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.counts["object_misses"] += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.counts["object_corrupt"] += 1
            self._quarantine(path)
            return None
        if doc.get("schema") != CACHE_SCHEMA:
            self.counts["object_corrupt"] += 1
            self._quarantine(path)
            return None
        self.counts["object_hits"] += 1
        return doc

    def put(self, key: str, doc: Dict) -> None:
        """Atomically store ``doc`` under ``key`` (last writer wins).

        Degrades to the in-memory overlay on any filesystem error
        (disk full, permissions): a sweep never aborts because its
        cache stopped persisting."""
        doc = dict(doc, schema=CACHE_SCHEMA, key=key)
        try:
            self._put_disk(key, doc)
        except OSError as exc:
            self._mem[key] = doc
            self._degrade(exc)

    def _put_disk(self, key: str, doc: Dict) -> None:
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- request index ---------------------------------------------------
    def _load_index(self) -> Dict[str, str]:
        if self._index is None:
            try:
                with open(self.index_path) as fh:
                    data = json.load(fh)
                self._index = dict(data.get("requests", {})) \
                    if data.get("schema") == CACHE_SCHEMA else {}
            except (OSError, json.JSONDecodeError):
                self._index = {}
        return self._index

    def lookup_request(self, req_key: str) -> Optional[Dict]:
        """Request key -> object document, via the index (None = miss)."""
        ckey = self._load_index().get(req_key)
        if ckey is None:
            self.counts["index_misses"] += 1
            return None
        self.counts["index_hits"] += 1
        return self.get(ckey)

    def record_request(self, req_key: str, ckey: str) -> None:
        self._load_index()[req_key] = ckey

    def save_index(self) -> None:
        index = self._load_index()
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump({"schema": CACHE_SCHEMA, "requests": index},
                          fh, indent=1, sort_keys=True)
            os.replace(tmp, self.index_path)
        except OSError as exc:
            self._degrade(exc)
