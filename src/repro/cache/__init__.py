"""``repro.cache`` — content-addressed memoization of sweep points.

PR 4 made every sweep point a pure function of ``(task, params, seed)``
with bit-identical outputs at any worker count; this package turns that
purity into reuse.  Each completed point is persisted under a SHA-256
fingerprint of exactly its inputs plus a *code fingerprint* of the
``repro`` sources (:mod:`~repro.cache.fingerprint`), so

* a warm re-run of the same sweep executes **zero** points and its
  merged ``repro.metrics/v1`` export is byte-identical to the cold run;
* an interrupted sweep resumes from the last persisted point, and a
  drained (SIGINT/SIGTERM) run leaves a :mod:`~repro.cache.manifest`
  documenting what completed and why it stopped;
* editing any simulator source, any param, or the seed changes the
  fingerprint and the stale entry is simply never addressed again.

:mod:`~repro.cache.store` is the on-disk store — atomic tmp+rename
writes (concurrent-writer safe), a size-capped LRU eviction policy,
and corruption demoted to a miss.  :mod:`~repro.cache.obs` exports the
hit/miss/evict/resume counters through the PR 3 metrics registry.

Knobs: ``$REPRO_CACHE_DIR`` (location), ``$REPRO_CACHE_MAX_BYTES``
(cap), ``--no-cache`` on every sweep-shaped CLI command, and
``repro cache {stats,clear,verify}`` for maintenance.
"""

from .fingerprint import (
    FINGERPRINT_VERSION,
    canonical_params,
    code_fingerprint,
    point_fingerprint,
    task_name,
)
from .manifest import (
    MANIFEST_SCHEMA,
    ResumeManifest,
    clear_resume_manifest,
    list_resume_manifests,
    load_resume_manifest,
    manifest_path,
    verify_resume_manifests,
    write_resume_manifest,
)
from .obs import register_cache_stats, register_store_snapshot, register_sweep_result
from .store import (
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    DEFAULT_MAX_BYTES,
    CacheEntry,
    CacheStats,
    EntryInfo,
    SweepCache,
    VerifyReport,
    default_cache_dir,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "DEFAULT_MAX_BYTES",
    "FINGERPRINT_VERSION",
    "MANIFEST_SCHEMA",
    "ResumeManifest",
    "clear_resume_manifest",
    "list_resume_manifests",
    "load_resume_manifest",
    "manifest_path",
    "verify_resume_manifests",
    "write_resume_manifest",
    "CacheEntry",
    "CacheStats",
    "EntryInfo",
    "SweepCache",
    "VerifyReport",
    "canonical_params",
    "code_fingerprint",
    "default_cache_dir",
    "point_fingerprint",
    "register_cache_stats",
    "register_store_snapshot",
    "register_sweep_result",
    "task_name",
]
