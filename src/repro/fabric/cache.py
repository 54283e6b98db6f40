"""Content-addressed on-disk cache for deterministic simulation results.

Every engine run is a pure function of (workload factory, kwargs, SimConfig
— which includes the seed) plus the simulator's source code. The cache
exploits that: entries are keyed by a SHA-256 over those inputs and a
*code-version salt* (a digest of every ``repro`` source file), so any code
change invalidates the whole cache automatically and no entry can ever be
served for inputs it was not computed from.

Entries are integrity-checked: each file stores the payload's own SHA-256
ahead of the pickled bytes, and a corrupted/truncated entry is detected on
load, counted in :class:`CacheStats`, *quarantined* (moved aside into
``<root>/quarantine/`` so the bad bytes stay available for diagnosis) and
treated as a miss — the run is simply re-simulated. IO problems never
propagate: an unreadable entry or an unwritable cache directory degrades
to uncached execution with a one-line :func:`repro.obs.warn`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.warnings import warn

#: bump to invalidate every cache entry regardless of code salt
CACHE_FORMAT = 1

_code_salt: str | None = None


def code_salt() -> str:
    """Digest of every ``repro`` source file (memoised per process).

    Two processes running the same source tree compute the same salt; any
    edit to any ``.py`` file under the package changes it.
    """
    global _code_salt
    if _code_salt is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_salt = digest.hexdigest()[:16]
    return _code_salt


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


@dataclass
class CacheStats:
    """Hit/miss/store counters, exposed in manifests and ``--cache-stats``."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0  #: corrupted or unreadable entries detected
    quarantined: int = 0  #: corrupt entries moved aside to quarantine/

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "quarantined": self.quarantined,
        }


class ResultCache:
    """A directory of integrity-checked pickled values, addressed by key.

    ``salt`` defaults to :func:`code_salt`; tests pass an explicit salt to
    exercise invalidation without editing source files.
    """

    def __init__(
        self,
        root: Path | str,
        salt: str | None = None,
        stats: CacheStats | None = None,
    ) -> None:
        self.root = Path(root)
        self.salt = salt if salt is not None else code_salt()
        self.stats = stats if stats is not None else CacheStats()
        #: corrupt keys whose entry could not be quarantined *or* evicted
        #: (read-only cache dir): remembered so this process stops
        #: re-reading and re-warning about them on every lookup.
        self._dead_keys: set[str] = set()

    # -- keys ---------------------------------------------------------------

    def key(self, kind: str, *parts: Any) -> str:
        """Content address for a value of ``kind`` derived from ``parts``.

        Parts are folded in via ``repr``, so they must have deterministic
        reprs (ints, floats, strings, tuples, dataclasses of those).
        """
        digest = hashlib.sha256()
        digest.update(f"repro-cache/{CACHE_FORMAT}/{self.salt}/{kind}".encode())
        for part in parts:
            digest.update(b"\0")
            digest.update(repr(part).encode())
        return digest.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- IO -----------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The stored value, or None on miss, IO error or corruption.

        A missing file is a clean miss. An *unreadable* file (permissions,
        IO error, a directory where the entry should be) counts as an
        error and degrades to a miss. A *corrupt* file (digest mismatch,
        truncated or unpicklable payload) is quarantined — moved into
        ``<root>/quarantine/`` — so the next store rewrites it cleanly and
        the bad bytes remain available for diagnosis; on a read-only cache
        the key is simply ignored for the rest of the process.
        """
        if key in self._dead_keys:
            self.stats.misses += 1
            return None
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as exc:
            self.stats.errors += 1
            self.stats.misses += 1
            warn(f"cache entry {path.name} unreadable ({exc}); treated as a miss")
            return None
        try:
            header, payload = blob.split(b"\n", 1)
            if header.decode() != hashlib.sha256(payload).hexdigest():
                raise ValueError("payload digest mismatch")
            value = pickle.loads(payload)
        except Exception as exc:
            self.stats.errors += 1
            self.stats.misses += 1
            self._quarantine(key, path, exc)
            return None
        self.stats.hits += 1
        return value

    def _quarantine(self, key: str, path: Path, reason: Exception) -> None:
        """Move a corrupt entry into quarantine/ (fallbacks: evict, ignore)."""
        qdir = self.root / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            # Can't move it (read-only dir, cross-device...): try plain
            # eviction; failing that, blacklist the key for this process so
            # we don't re-read and re-detect the same corruption forever.
            try:
                path.unlink()
            except OSError:
                self._dead_keys.add(key)
                warn(
                    f"cache entry {path.name} corrupt ({reason}) and the "
                    f"cache directory is not writable; ignoring the entry"
                )
                return
            warn(f"cache entry {path.name} corrupt ({reason}); evicted")
            return
        self.stats.quarantined += 1
        warn(f"cache entry {path.name} corrupt ({reason}); quarantined to {qdir}")

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` atomically (write-to-temp + rename).

        Storage failures (read-only or full cache directory) warn once and
        degrade to uncached execution — they never fail the run.
        """
        path = self._path(key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            self.stats.errors += 1
            warn(f"cache store failed for {path.name} ({exc}); running uncached")
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stats.stores += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self.root} salt={self.salt}>"
