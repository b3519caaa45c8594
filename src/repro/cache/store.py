"""Persistent, content-addressed pipeline cache.

:class:`CacheStore` memoizes expensive pipeline products — schedules,
programs, simulation reports, oracle verdicts — on disk, keyed by the
content hashes of :mod:`repro.cache.keys`.  It survives across worker
processes and across runs, which is what makes warm campaign reruns
(corpus, sweep, ablation, fuzz) skip compile+sim entirely.

Three properties keep it safe:

* **Versioned invalidation.**  Entries live under a generation
  directory named by :func:`code_fingerprint`, a digest of every
  ``repro`` source file.  Any code change starts a fresh generation;
  stale generations are inert bytes until ``repro cache clear``.
* **Atomic writes.**  Values are pickled to a temporary file and
  :func:`os.replace`\\ d into place, so concurrent workers and killed
  runs can never publish a torn entry.  The tag file is published the
  same way, and directory creation retries around a concurrent
  ``clear()`` — two processes ``put()``-ing the same key, or a put
  racing a clear, can never corrupt each other (stress-tested in
  ``tests/cache/test_store_concurrency.py``).
* **Corruption tolerance.**  Unreadable or truncated entries read as
  misses and are deleted (only if the entry on disk is still the bytes
  that failed to load — a concurrent rewrite is left alone); the cache
  is a pure accelerator and must never be able to fail a run.

Hits and misses are counted on the :class:`~repro.obs.metrics.
MetricsRegistry` (scope ``cache``) when metrics are active.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs import metrics

__all__ = ["CacheStore", "code_fingerprint", "default_cache_dir"]

#: Marker file written at the cache root.  ``clear()`` refuses to
#: delete a directory that does not carry it, so a mistyped
#: ``--cache-dir`` can never vaporise unrelated files.
TAG_FILE = "CACHE.tag"
TAG_CONTENT = "repro pipeline cache v1\n"

_ENV_VAR = "REPRO_CACHE_DIR"

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (memoised per process).

    The cache generation key: two processes share entries only when
    they run byte-identical pipeline code.  Hashing file *contents*
    (not mtimes) keeps the fingerprint stable across checkouts and
    container rebuilds of the same revision.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _code_fingerprint = hasher.hexdigest()
    return _code_fingerprint


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the CWD."""
    env = os.environ.get(_ENV_VAR)
    return Path(env) if env else Path(".repro-cache")


class CacheStore:
    """On-disk ``key -> pickled value`` store with generation dirs.

    Layout::

        <root>/CACHE.tag
        <root>/<fingerprint[:16]>/<key[:2]>/<key>.pkl

    The two-character fan-out directory keeps any single directory
    small; the 16-character generation prefix keeps paths readable
    while staying far beyond collision range for code revisions.
    """

    def __init__(
        self, root: Optional[Union[str, "os.PathLike[str]"]] = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._generation = self.root / code_fingerprint()[:16]
        self.hits = 0
        self.misses = 0

    # -- entry access -----------------------------------------------------

    def _path(self, key: str) -> Path:
        return self._generation / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or ``None`` on miss.

        ``None`` is therefore not a cacheable value; pipeline products
        never are ``None`` (wrap in a tuple if one ever must be).
        """
        path = self._path(key)
        stat = None
        try:
            with open(path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            metrics.inc("cache.miss", scope="cache")
            return None
        except Exception:
            # Unreadable (stale-format) entry: drop it and treat as a
            # miss — but only while the path still holds the bytes we
            # failed to read.  A concurrent put() may have atomically
            # replaced the entry between our open and this cleanup;
            # deleting blindly would vaporise a good fresh entry out
            # from under other readers.
            try:
                if stat is not None and os.stat(path).st_ino == stat.st_ino:
                    os.remove(path)
            except OSError:
                pass
            self.misses += 1
            metrics.inc("cache.miss", scope="cache")
            return None
        self.hits += 1
        metrics.inc("cache.hit", scope="cache")
        return value

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key* (atomic; last writer wins).

        Safe against a concurrent :meth:`clear`: the generation and
        fan-out directories may vanish between ``mkdir`` and the
        rename, so the write retries (re-creating them) a few times
        and then gives up silently — the cache is an accelerator, a
        lost entry under a clear storm is a miss, never an error.
        """
        path = self._path(key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._ensure_tag()
        for _ in range(3):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, FileNotFoundError):
                # Even with exist_ok=True a racing clear() can slip
                # between the EEXIST and pathlib's is_dir() re-check
                # (or remove a freshly made parent); retry.
                continue
            try:
                fd, tmp = tempfile.mkstemp(
                    dir=str(path.parent), suffix=".tmp"
                )
            except FileNotFoundError:
                # clear() removed the directory between mkdir and
                # mkstemp; re-create and retry.
                continue
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except FileNotFoundError:
                # The directory vanished under the rename; retry.
                self._remove_quietly(tmp)
                continue
            except BaseException:
                self._remove_quietly(tmp)
                raise
            metrics.inc("cache.put", scope="cache")
            return
        metrics.inc("cache.put_dropped", scope="cache")

    def _ensure_tag(self) -> None:
        """Publish the tag marker atomically (racing writers are fine)."""
        tag = self.root / TAG_FILE
        if tag.exists():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tag.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(TAG_CONTENT)
            os.replace(tmp, tag)
        except BaseException:
            self._remove_quietly(tmp)
            raise

    @staticmethod
    def _remove_quietly(path: Union[str, Path]) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    # -- maintenance ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry counts and sizes, split current vs stale generations."""
        entries = 0
        stale_entries = 0
        total_bytes = 0
        generations = 0
        if self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if not child.is_dir():
                    continue
                generations += 1
                for entry in child.rglob("*.pkl"):
                    total_bytes += entry.stat().st_size
                    if child == self._generation:
                        entries += 1
                    else:
                        stale_entries += 1
        return {
            "root": str(self.root),
            "code_fingerprint": code_fingerprint()[:16],
            "generations": generations,
            "entries": entries,
            "stale_entries": stale_entries,
            "total_bytes": total_bytes,
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed.

        Refuses to touch a directory that exists but does not carry the
        :data:`TAG_FILE` marker — ``clear()`` must never be able to
        recursively delete a directory this store did not populate.

        Safe against concurrent writers and readers: entries that
        vanish mid-walk (a racing reader's corrupt-entry cleanup, or a
        second clear) are skipped, and a directory re-populated by a
        racing :meth:`put` after we emptied it is left standing rather
        than crashing the walk with ``ENOTEMPTY``.  Published entries
        are only ever whole files (writers rename complete temp files
        into place), so a clear can never expose a half-written entry
        to a reader — it either removes a complete file or nothing.
        """
        if not self.root.exists():
            return 0
        if not (self.root / TAG_FILE).exists():
            raise ValueError(
                f"{self.root} does not look like a repro cache "
                f"(missing {TAG_FILE}); refusing to clear it"
            )
        removed = 0
        try:
            children = sorted(self.root.iterdir())
        except FileNotFoundError:
            return 0
        for child in children:
            if not child.is_dir():
                continue
            for dirpath, dirnames, filenames in os.walk(
                child, topdown=False
            ):
                for name in filenames:
                    try:
                        os.remove(os.path.join(dirpath, name))
                    except OSError:
                        continue
                    if name.endswith(".pkl"):
                        removed += 1
                try:
                    os.rmdir(dirpath)
                except OSError:
                    # Re-populated by a concurrent put (ENOTEMPTY) or
                    # already gone (ENOENT); either way, leave it.
                    pass
        return removed
