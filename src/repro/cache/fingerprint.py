"""Content-addressed fingerprints for sweep points.

A sweep point's result is a pure function of ``(task, params, seed)``
plus the source of the :mod:`repro` package itself — PR 4's determinism
contract.  :func:`point_fingerprint` folds exactly those four inputs
into one SHA-256 hex digest, which becomes the point's address in the
on-disk cache:

* the **task** is identified by its module-qualified name (the same
  reference a spawned worker imports);
* **params** are canonicalized first (:func:`canonical_params`) so that
  semantically equal mappings hash equally regardless of insertion
  order, and tuples/lists are interchangeable;
* the **seed** enters verbatim;
* the **code fingerprint** (:func:`code_fingerprint`) hashes every
  ``*.py`` source file of the installed ``repro`` package, so editing
  any simulator/model source silently invalidates every cached result
  instead of serving stale physics.

The execution model of a fig5/fig8 point (DES or analytic) is one of its
params (``"backend"``), so the two models' near-but-not-equal results
never alias to one cache entry, and wrapping a task (the chaos harness)
cannot lose the distinction.  Changing any one of the four inputs
changes the fingerprint — the property ``tests/cache/test_fingerprint.py``
pins down.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "FINGERPRINT_VERSION",
    "canonical_params",
    "code_fingerprint",
    "point_fingerprint",
    "task_name",
]

#: Bump to invalidate every existing cache entry on a format change.
#: v2: backend identity joined the payload (analytic fast path).
#: v3: the backend line left the payload; the backend is a point param.
FINGERPRINT_VERSION = 3

#: Memoized code fingerprint (one source walk per process).
_CODE_FP: Optional[str] = None


def task_name(task: Callable[..., Any]) -> str:
    """The stable, import-path identity of a sweep task."""
    return f"{task.__module__}.{task.__qualname__}"


def _canonical(obj: Any) -> Any:
    """A JSON-serializable skeleton that equal params map to equally."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() keeps full precision; JSON float formatting could
        # collapse distinct values.
        return {"__float__": repr(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, Mapping):
        return {
            "__map__": sorted(
                (str(key), _canonical(value)) for key, value in obj.items()
            )
        }
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(_canonical(i), sort_keys=True)
                                  for i in obj)}
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__module__}.{type(obj).__qualname__}"
                            f".{obj.name}"}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    # Last resort: type identity + repr.  Deterministic for the config
    # objects that reach sweep params (plain classes with value reprs);
    # an object with a default object.__repr__ (memory address) would
    # defeat caching, so reject it loudly.
    text = repr(obj)
    if " object at 0x" in text:
        raise TypeError(
            f"cannot fingerprint {type(obj).__qualname__}: repr() is not "
            f"value-based; give it a deterministic __repr__ or keep it out "
            f"of sweep params"
        )
    return {"__repr__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "value": text}


def canonical_params(params: Mapping[str, Any]) -> str:
    """A canonical JSON encoding of a point's params mapping."""
    return json.dumps(_canonical(params), sort_keys=True, separators=(",", ":"))


def code_fingerprint(refresh: bool = False) -> str:
    """SHA-256 over every ``*.py`` source file of the ``repro`` package.

    Walked once per process (memoized); ``refresh=True`` forces a
    re-walk.  Files are hashed as ``relpath NUL contents`` in sorted
    relpath order, so the digest is independent of filesystem
    enumeration order and of where the package is installed.
    """
    global _CODE_FP
    if _CODE_FP is not None and not refresh:
        return _CODE_FP
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in filenames:
            if fn.endswith(".py"):
                full = os.path.join(dirpath, fn)
                sources.append((os.path.relpath(full, root), full))
    for relpath, full in sorted(sources):
        digest.update(relpath.encode("utf-8"))
        digest.update(b"\0")
        with open(full, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    _CODE_FP = digest.hexdigest()
    return _CODE_FP


def point_fingerprint(
    task: str,
    params: Mapping[str, Any],
    seed: int,
    code_fp: Optional[str] = None,
) -> str:
    """The content address of one sweep point's result.

    ``task`` is the :func:`task_name` string; ``code_fp`` defaults to
    the live :func:`code_fingerprint` and is injectable for tests.
    """
    if code_fp is None:
        code_fp = code_fingerprint()
    payload = "\n".join(
        (
            f"v{FINGERPRINT_VERSION}",
            task,
            canonical_params(params),
            str(int(seed)),
            code_fp,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
