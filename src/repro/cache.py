"""Content-addressed compilation cache.

The Table 1 pipeline is deterministic: one (source form, CompilerOptions,
target) triple always produces the same parenthesized assembly.  That makes
whole-pipeline memoization sound, and this module supplies the store:

* :func:`canonical_source` -- the reader+printer round trip that collapses
  whitespace/comment differences, so the key addresses *content*,
* :func:`options_fingerprint` -- every semantic CompilerOptions field,
  normalized and sorted (presentation-only fields are excluded),
* :func:`cache_key` -- SHA-256 over canonical form ⊕ options fingerprint ⊕
  target name ⊕ cache-format version (⊕ any extra compiler state the
  caller knows affects conversion, e.g. proclaimed specials),
* :class:`MemoryCache` -- a bounded in-memory LRU layer,
* :class:`DiskCache` -- an on-disk pickle store with atomic writes
  (``os.replace`` of a same-directory temp file) and corruption-tolerant
  loads: a truncated/garbled/version-mismatched entry degrades to a miss,
  never an exception,
* :class:`CompilationCache` -- the two layers composed, thread-safe, with
  hit/miss/store/evict counters that :class:`repro.diagnostics.Diagnostics`
  surfaces in ``report()`` / ``to_json()``.

The cached value is a :class:`CachedFunction`: the CodeObject plus the
back-translated optimized source -- everything needed to re-register a
function without re-running the pipeline, and nothing that is not (no IR
trees, no transcripts).  Symbol identity across processes is preserved by
``Symbol.__reduce__`` re-interning on unpickle.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional, Union

from .machine.isa import CodeObject

# NON_SEMANTIC_OPTION_FIELDS: the declaration lives on the option fields
# themselves (``repro.options.non_semantic``); re-exported here for callers
# that historically imported it from this module.  The same declared split
# feeds the ``repro.api`` wire schema, so the cache key and the service
# protocol can never disagree about which fields are semantic.
from .options import NON_SEMANTIC_OPTION_FIELDS  # noqa: F401

#: Bump whenever the pickled payload layout or the key derivation changes;
#: entries written under another version are treated as misses.
CACHE_FORMAT_VERSION = 2  # v2: CodeObject grew line_map/source_file

#: Pickle payload envelope tag (a cheap sanity check before trusting data).
_MAGIC = "repro-cache"


# ---------------------------------------------------------------------------
# key derivation


def canonical_source(source: Any) -> str:
    """Render *source* (program text or one already-read form) in the
    printer's canonical spelling.  Two texts that read to the same forms --
    different whitespace, comments, number spellings -- canonicalize
    identically, so they share a cache key."""
    from .reader import read_all, write_to_string

    if isinstance(source, str):
        forms = read_all(source)
    else:
        forms = [source]
    return "\n".join(write_to_string(form) for form in forms)


def options_fingerprint(options: Any) -> str:
    """A stable text rendering of every semantic CompilerOptions field.

    Fields are sorted by name so dataclass declaration order is irrelevant;
    unknown/extra fields added by future PRs are picked up automatically
    (changing any of them changes the key, which is the safe direction)."""
    parts: List[str] = []
    for f in sorted(fields(options), key=lambda f: f.name):
        if f.name in NON_SEMANTIC_OPTION_FIELDS:
            continue
        parts.append(f"{f.name}={getattr(options, f.name)!r}")
    return ";".join(parts)


def cache_key(canonical: str, options: Any,
              extra: Iterable[str] = ()) -> str:
    """SHA-256 hex digest addressing one compilation unit.

    *canonical* is the :func:`canonical_source` text of the form(s);
    *extra* carries compiler-instance state that affects conversion (the
    sorted proclaimed-specials snapshot, the wrapper name of an expression
    compile)."""
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(f"version:{CACHE_FORMAT_VERSION}\n".encode("utf-8"))
    hasher.update(f"target:{options.target}\n".encode("utf-8"))
    hasher.update(f"options:{options_fingerprint(options)}\n".encode("utf-8"))
    for item in extra:
        hasher.update(f"extra:{item}\n".encode("utf-8"))
    hasher.update(b"source:\n")
    hasher.update(canonical.encode("utf-8"))
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# cached values


@dataclass
class CachedFunction:
    """One cached pipeline product: enough to re-register a compiled
    function (name, executable code, optimized source) and nothing more."""

    name: str
    code: CodeObject
    optimized_source: str

    def listing(self) -> str:
        return self.code.listing()


@dataclass
class CacheStats:
    """Counters for one cache (or one layer of it)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Entries rejected on load: truncated/garbled pickles, wrong format
    #: version, unreadable files.  Every rejection also counts as a miss.
    corrupt: int = 0
    #: Failed writes (read-only store, disk errors): the compile result is
    #: still returned, the entry just is not persisted.
    store_errors: int = 0

    def to_json(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "store_errors": self.store_errors,
        }


# hashlib, pickle and tempfile are imported where a key is hashed or an
# entry crosses the disk: a compile that runs without a cache (the default,
# and every cold ``python -m repro batch`` without --cache-dir) never
# loads them.


def _encode(value: CachedFunction) -> bytes:
    import pickle

    return pickle.dumps((_MAGIC, CACHE_FORMAT_VERSION, value),
                        protocol=pickle.HIGHEST_PROTOCOL)


def _decode(data: bytes) -> CachedFunction:
    """Unpickle one envelope; raises on anything suspect (the callers turn
    every failure into a miss)."""
    import pickle

    payload = pickle.loads(data)
    if not (isinstance(payload, tuple) and len(payload) == 3):
        raise ValueError("malformed cache envelope")
    magic, version, value = payload
    if magic != _MAGIC:
        raise ValueError("not a repro cache entry")
    if version != CACHE_FORMAT_VERSION:
        raise ValueError(
            f"cache format version {version} != {CACHE_FORMAT_VERSION}")
    if not isinstance(value, CachedFunction):
        raise ValueError("cache entry is not a CachedFunction")
    return value


# ---------------------------------------------------------------------------
# layers


class MemoryCache:
    """Bounded LRU layer: complete objects, no (de)serialization on hit."""

    def __init__(self, max_entries: int = 256):
        self.max_entries = max(1, int(max_entries))
        self._entries: "OrderedDict[str, CachedFunction]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[CachedFunction]:
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: str, value: CachedFunction) -> None:
        self.promote(key, value)
        self.stats.stores += 1

    def promote(self, key: str, value: CachedFunction) -> None:
        """Insert without counting a store (disk-hit promotion)."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


class DiskCache:
    """On-disk layer: one pickle file per key under *directory*.

    Writes are atomic (temp file in the same directory, then
    ``os.replace``) so a crashed or concurrent writer can never leave a
    half-written entry under the final name.  Loads tolerate anything --
    missing, truncated, garbled, version-skewed, unreadable -- by reporting
    a miss; the last load failure is kept in :attr:`last_error` so callers
    can attach a diagnostics warning."""

    def __init__(self, directory: Union[str, os.PathLike]):
        self.directory = os.fspath(directory)
        self.stats = CacheStats()
        self.last_error: Optional[str] = None

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".pkl")

    def get(self, key: str) -> Optional[CachedFunction]:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as err:
            self.stats.misses += 1
            self.stats.corrupt += 1
            self.last_error = f"unreadable cache entry {path}: {err}"
            return None
        try:
            value = _decode(data)
        except Exception as err:  # any unpickling failure is a miss
            self.stats.misses += 1
            self.stats.corrupt += 1
            self.last_error = f"corrupt cache entry {path}: {err}"
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: CachedFunction) -> None:
        import pickle
        import tempfile

        path = self._path(key)
        try:
            os.makedirs(self.directory, exist_ok=True)
            data = _encode(value)
            fd, temp_path = tempfile.mkstemp(
                prefix=".tmp-" + key[:16], dir=self.directory)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError) as err:
            self.stats.store_errors += 1
            self.last_error = f"cannot store cache entry {path}: {err}"
            return
        self.stats.stores += 1


# ---------------------------------------------------------------------------
# the composed cache


class CompilationCache:
    """Memory LRU in front of an optional disk store.  Thread-safe: the
    batch driver shares one instance across pool threads, and every
    compiler in one process may share one instance."""

    def __init__(self, directory: Optional[Union[str, os.PathLike]] = None,
                 max_memory_entries: int = 256):
        self.memory = MemoryCache(max_entries=max_memory_entries)
        self.disk = DiskCache(directory) if directory is not None else None
        self.stats = CacheStats()
        self.last_error: Optional[str] = None
        self._lock = threading.RLock()

    @property
    def directory(self) -> Optional[str]:
        return self.disk.directory if self.disk is not None else None

    def get(self, key: str) -> Optional[CachedFunction]:
        with self._lock:
            value = self.memory.get(key)
            if value is not None:
                self.stats.hits += 1
                return value
            if self.disk is not None:
                value = self.disk.get(key)
                if value is not None:
                    self.memory.promote(key, value)
                    self.stats.hits += 1
                    return value
                if self.disk.last_error is not None:
                    self.stats.corrupt += 1
                    self.last_error = self.disk.last_error
                    self.disk.last_error = None
            self.stats.misses += 1
            return None

    def put(self, key: str, value: CachedFunction) -> None:
        with self._lock:
            self.memory.put(key, value)
            if self.disk is not None:
                self.disk.put(key, value)
                if self.disk.last_error is not None:
                    self.last_error = self.disk.last_error
                    self.disk.last_error = None
            self.stats.stores += 1
            self.stats.evictions = self.memory.stats.evictions
            if self.disk is not None:
                self.stats.store_errors = self.disk.stats.store_errors

    def take_last_error(self) -> Optional[str]:
        """Return-and-clear the most recent load/store failure text (the
        compiler turns it into a diagnostics warning)."""
        with self._lock:
            error, self.last_error = self.last_error, None
            return error

    def to_json(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": self.directory,
                "format_version": CACHE_FORMAT_VERSION,
                "stats": self.stats.to_json(),
                "memory": self.memory.stats.to_json(),
                "disk": (self.disk.stats.to_json()
                         if self.disk is not None else None),
            }

