"""Content digests of SBBT traces.

The simulation cache (:mod:`repro.cache`) is content-addressed: a cached
result is keyed by *what was simulated*, not by where the trace file
happens to live.  The canonical identity of a trace is therefore the
SHA-256 of its **uncompressed SBBT payload** (header + packets):

* the same trace stored as ``.sbbt``, ``.sbbt.gz`` or ``.sbbt.xz``
  digests identically (compression is transparent);
* renaming, copying or regenerating a byte-identical trace preserves the
  digest;
* an in-memory :class:`~repro.sbbt.trace.TraceData` digests the same as
  the file it was read from, because SBBT encoding is canonical
  (``decode(encode(t)) == t`` and ``encode(decode(p)) == p``).

Cache keying, serve keying and engine publishing all need a file's
digest, so it is remembered — in one bounded, locked map shared by them
all — under the file's :func:`path_identity`, which any rewrite changes.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Union

from .compression import open_compressed
from .trace import TraceData
from .writer import encode_payload

__all__ = ["payload_digest", "trace_digest", "path_identity",
           "known_digest", "remember_digest"]

TraceLike = Union[TraceData, str, os.PathLike]

#: Algorithm stamped into cache keys; bump alongside the cache schema if
#: it ever changes.
DIGEST_ALGORITHM = "sha256"

__all__.append("DIGEST_ALGORITHM")


def payload_digest(payload: bytes) -> str:
    """Hex SHA-256 of an uncompressed SBBT byte payload.

    >>> payload_digest(b"")[:8]
    'e3b0c442'
    """
    return hashlib.sha256(payload).hexdigest()


#: How many file digests are remembered (least recently used go first).
MEMO_LIMIT = 1024
_memo: "OrderedDict[tuple, str]" = OrderedDict()
_memo_lock = threading.Lock()


def path_identity(path: str | os.PathLike) -> tuple:
    """The key a file's digest is remembered under: its resolved path
    and the stat fields a rewrite changes (``os.utime`` can put an mtime
    back, but it moves the ctime)."""
    stat = os.stat(path)
    return (str(Path(path).resolve()), stat.st_dev, stat.st_ino,
            stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)


def known_digest(identity: tuple) -> str | None:
    """The remembered digest of a :func:`path_identity`, or ``None``."""
    with _memo_lock:
        if identity in _memo:
            _memo.move_to_end(identity)
        return _memo.get(identity)


def remember_digest(identity: tuple, digest: str) -> None:
    """Remember ``digest`` for a :func:`path_identity`."""
    with _memo_lock:
        _memo[identity] = digest
        _memo.move_to_end(identity)
        while len(_memo) > MEMO_LIMIT:
            _memo.popitem(last=False)


def trace_digest(trace: TraceLike) -> str:
    """Canonical content digest of a trace (path or in-memory data).

    A path is decompressed and digested without decoding the packets,
    once per :func:`path_identity`; an in-memory trace is encoded to its
    canonical payload first.  Both spellings of the same trace produce
    the same digest.
    """
    if isinstance(trace, TraceData):
        return payload_digest(encode_payload(trace))
    identity = path_identity(trace)
    known = known_digest(identity)
    if known is not None:
        return known
    with open_compressed(Path(trace), "rb") as stream:
        hasher = hashlib.sha256()
        while chunk := stream.read(1 << 20):
            hasher.update(chunk)
    remember_digest(identity, hasher.hexdigest())
    return hasher.hexdigest()
