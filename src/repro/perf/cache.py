"""Content-addressed capture cache.

Synthetic capture generation dominates the wall-clock of benchmark and
CI runs: simulating one year takes seconds while reading the resulting
pcap back takes milliseconds. This module caches the *output* of
:func:`repro.datasets.generate_capture` — the pcap bytes and the
host-name map — under a key that is a content address of everything
the output depends on:

* every field of the :class:`~repro.datasets.generate.CaptureConfig`,
* the capture year,
* a digest of the generating code (all ``.py`` sources of the
  ``datasets``, ``simnet``, ``grid``, ``netstack`` and ``iec104``
  packages).

Editing any generator source therefore invalidates the cache
automatically — stale entries can never be served.

Entries live under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-uncharted``), three files per key:

* ``<key>.pcap`` — the capture, exactly as ``repro generate`` writes it;
* ``<key>.names.json`` — the host-name map (``ip -> name``);
* ``<key>.meta.json`` — provenance (year, config, counts, creation
  time) for ``repro cache ls``.

The simulator's timebase is integer microseconds, exactly what a
classic pcap record header stores, so the pcap round trip is lossless
by construction and no timestamp sidecar is needed. (Format 1 carried
a ``<key>.times.bin`` float64 sidecar; the format version below keys
those stale entries out.)

Writes go through a temporary file and ``os.replace`` so concurrent
benchmark processes never observe a half-written entry.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..datasets import CaptureConfig, generate_capture
from ..netstack.addresses import IPv4Address
from ..netstack.packet import CapturedPacket, decode_records
from ..netstack.pcap import PcapReader

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Packages whose sources feed the code digest: everything that can
#: change the bytes of a generated capture.
_PIPELINE_PACKAGES = ("datasets", "simnet", "grid", "netstack",
                      "iec104")

#: On-disk entry layout version. Bumped to 2 when the float-timestamp
#: sidecar was retired; format-1 entries miss cleanly and are
#: regenerated.
_FORMAT_VERSION = 2


def cache_dir() -> Path:
    """The cache root (not created until an entry is stored)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-uncharted"


@dataclass
class CacheStats:
    """Process-wide hit/miss counters (observable from benchmarks)."""

    hits: int = 0
    misses: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


#: The module-level counter instance every lookup updates.
STATS = CacheStats()

#: Memoized code digest (the sources cannot change mid-process).
_CODE_DIGEST: str | None = None


def code_digest() -> str:
    """SHA-256 over every pipeline source file (path + contents)."""
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for name in _PIPELINE_PACKAGES:
            for source in sorted((package_root / name).rglob("*.py")):
                digest.update(str(source.relative_to(package_root))
                              .encode())
                digest.update(b"\0")
                digest.update(source.read_bytes())
                digest.update(b"\0")
        _CODE_DIGEST = digest.hexdigest()
    return _CODE_DIGEST


def capture_key(year: int, config: CaptureConfig) -> str:
    """Content address of ``generate_capture(year, config)``.

    ``workers`` is deliberately part of the key: the windowed mode
    produces different (equally valid) bytes than the monolithic
    default, so the two must never share an entry.
    """
    document = {"year": year, "config": asdict(config),
                "code": code_digest(), "format": _FORMAT_VERSION}
    serialized = json.dumps(document, sort_keys=True)
    return hashlib.sha256(serialized.encode()).hexdigest()


@dataclass(slots=True)
class CachedCapture:
    """A capture deserialized from the cache.

    Exposes the two members the analysis pipeline and the benchmark
    fixtures consume — ``packets`` and :meth:`host_names` — plus the
    provenance key. (The full :class:`SyntheticCapture` carries live
    simulation objects that are not meaningful to rehydrate.)
    """

    year: int
    key: str
    packets: list[CapturedPacket]
    names: dict[IPv4Address, str] = field(default_factory=dict)

    def host_names(self) -> dict[IPv4Address, str]:
        return self.names


def _entry_paths(key: str) -> dict[str, Path]:
    root = cache_dir()
    return {"pcap": root / f"{key}.pcap",
            "names": root / f"{key}.names.json",
            "meta": root / f"{key}.meta.json"}


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def store(year: int, config: CaptureConfig, capture) -> str:
    """Write ``capture`` to the cache; returns its key."""
    key = capture_key(year, config)
    paths = _entry_paths(key)
    cache_dir().mkdir(parents=True, exist_ok=True)

    buffer = io.BytesIO()
    capture.to_pcap(buffer)
    _atomic_write(paths["pcap"], buffer.getvalue())

    names = {str(address): name
             for address, name in capture.host_names().items()}
    _atomic_write(paths["names"],
                  json.dumps(names, indent=2, sort_keys=True).encode())

    meta = {"year": year, "config": asdict(config),
            "packets": len(capture.packets),
            "pcap_bytes": paths["pcap"].stat().st_size,
            "code": code_digest(), "format": _FORMAT_VERSION,
            "created": time.time()}
    _atomic_write(paths["meta"],
                  json.dumps(meta, indent=2, sort_keys=True).encode())
    return key


def load(key: str, year: int) -> CachedCapture | None:
    """Deserialize the entry for ``key``; None if absent/incomplete."""
    paths = _entry_paths(key)
    if not all(path.exists() for path in paths.values()):
        return None
    with open(paths["pcap"], "rb") as stream:
        records = list(PcapReader(stream))
    # The pcap header's integer microseconds ARE the canonical tick;
    # decoding reconstructs every packet bit-identically.
    packets = list(decode_records(records))
    names = {IPv4Address.parse(address): name
             for address, name in
             json.loads(paths["names"].read_text()).items()}
    return CachedCapture(year=year, key=key, packets=packets,
                         names=names)


def cached_generate(year: int,
                    config: CaptureConfig | None = None):
    """``generate_capture`` behind the content-addressed cache.

    On a hit returns a :class:`CachedCapture`; on a miss generates,
    stores and returns the fresh :class:`SyntheticCapture`. Both
    expose ``packets`` and ``host_names()``, which is the entire
    surface the analysis pipeline needs.
    """
    config = config or CaptureConfig()
    key = capture_key(year, config)
    cached = load(key, year)
    if cached is not None:
        STATS.hits += 1
        return cached
    STATS.misses += 1
    capture = generate_capture(year, config)
    store(year, config, capture)
    return capture


def list_entries() -> list[dict]:
    """Metadata of every complete cache entry, newest first."""
    root = cache_dir()
    if not root.is_dir():
        return []
    entries = []
    for meta_path in sorted(root.glob("*.meta.json")):
        key = meta_path.name[:-len(".meta.json")]
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            continue
        meta["key"] = key
        entries.append(meta)
    entries.sort(key=lambda meta: meta.get("created", 0.0),
                 reverse=True)
    return entries


def clear_cache() -> int:
    """Delete every cache entry; returns the number removed."""
    root = cache_dir()
    if not root.is_dir():
        return 0
    removed = 0
    for meta_path in list(root.glob("*.meta.json")):
        key = meta_path.name[:-len(".meta.json")]
        # Include the retired format-1 float sidecar in the sweep.
        stale = [*_entry_paths(key).values(),
                 root / f"{key}.times.bin"]
        for path in stale:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        removed += 1
    for leftover in root.glob("*.tmp"):
        try:
            leftover.unlink()
        except FileNotFoundError:
            pass
    return removed
