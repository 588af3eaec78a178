"""``repro.cache`` — content-addressed memoization of sweep points.

PR 4 made every sweep point a pure function of ``(task, params, seed)``
with bit-identical outputs at any worker count; this package turns that
purity into reuse.  Each completed point is persisted under a SHA-256
fingerprint of exactly its inputs plus a *code fingerprint* of the
``repro`` sources (:mod:`~repro.cache.fingerprint`), so

* a warm re-run of the same sweep executes **zero** points and its
  merged ``repro.metrics/v1`` export is byte-identical to the cold run;
* an interrupted or drained (SIGINT/SIGTERM) sweep resumes from the
  last persisted point: rerunning it serves every completed point as a
  hit;
* editing any simulator source, any param, or the seed changes the
  fingerprint and the stale entry is simply never addressed again.

:mod:`~repro.cache.store` is the on-disk store — atomic tmp+rename
writes (concurrent-writer safe), a size-capped LRU eviction policy,
and corruption demoted to a miss.  :mod:`~repro.cache.obs` exports the
store's shape through the metrics registry.

Knobs: ``$REPRO_CACHE_DIR`` (location), ``$REPRO_CACHE_MAX_BYTES``
(cap), ``--no-cache`` on every sweep-shaped CLI command, and
``repro cache {stats,clear,verify}`` for maintenance.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CACHE_DIR_ENV": ".store",
    "CACHE_MAX_BYTES_ENV": ".store",
    "DEFAULT_MAX_BYTES": ".store",
    "FINGERPRINT_VERSION": ".fingerprint",
    "CacheEntry": ".store",
    "CacheStats": ".store",
    "EntryInfo": ".store",
    "SweepCache": ".store",
    "VerifyReport": ".store",
    "canonical_params": ".fingerprint",
    "code_fingerprint": ".fingerprint",
    "default_cache_dir": ".store",
    "point_fingerprint": ".fingerprint",
    "register_store_snapshot": ".obs",
    "task_name": ".fingerprint",
})
