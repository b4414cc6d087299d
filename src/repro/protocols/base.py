"""The protocol registry: one frozen spec per supported protocol.

The stream engine used to hard-code IEC 104 at three seams — the port
filter in ``StreamPipeline._reassemble``, the tolerant parser it
constructs, and the per-link ``StreamDecoder`` the live-tap path
builds.  :class:`ProtocolSpec` captures the first two (plus the wire
metadata consumers need: default ports, the token alphabet the
Markov/whitelist models see, display hints) as a frozen value, so a
pipeline binds *one* protocol and a fleet mixes them per link.  The
third needs no seam: the parser owns its framing, and one decoder
drives any parser.

A spec's behavioural half is the parser class in the underscore-
prefixed ``_parser_factory`` field (:meth:`new_parser`); the public
fields are pure JSON-able metadata and :meth:`to_json` is their wire
form — the schema-drift lint certifies it against the ``Protocol``
column of the docs/streaming.md schema table.

The registry is module-level and populated at import time by
:mod:`repro.protocols.iec104` and :mod:`repro.protocols.modbus`
(importing :mod:`repro.protocols` loads both).  :func:`get_protocol`
is the one lookup every layer uses; its unknown-name error lists the
registered specs, which is also the CLI's ``--protocol`` error.

Parsers are duck-typed, mirroring the IEC 104 shapes: a parser has
``parse_frame(raw, link_key=None)`` and ``parse_stream(payload,
link_key=None)`` returning result objects with ``raw`` / ``apdu`` /
``error`` / ``ok`` / ``compliant``, and owns its framing —
``scan(buf, offset)`` returns ``(spans, stop, desync)`` and
``resync(buf, stop)`` the offset where a stream resumes after lost
framing — so one :class:`~repro.iec104.codec.StreamDecoder` drives
any of them over a live byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

#: Builds a fresh (stateful) parser for one pipeline.
ParserFactory = Callable[[], Any]


@dataclass(frozen=True)
class ProtocolSpec:
    """One wire protocol as the stream engine sees it.

    ``name`` is the registry key (``"iec104"``, ``"modbus"``);
    ``title`` the human display name; ``ports`` the TCP ports whose
    traffic belongs to the protocol (the pipeline filter and the
    demux auto-detect both use them); ``tokens`` describes the token
    alphabet events carry into the Markov/whitelist models (display
    hints, e.g. ``"I<typeID>"`` or ``"F<fc>"``).
    """

    name: str
    title: str
    ports: tuple[int, ...]
    tokens: tuple[str, ...]
    _parser_factory: ParserFactory = field(repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a protocol spec needs a name")
        if not self.ports:
            raise ValueError(
                f"protocol {self.name!r} needs at least one port")

    # -- the behavioural seam ----------------------------------------

    def new_parser(self) -> Any:
        """A fresh stateful parser (one per pipeline)."""
        return self._parser_factory()

    def matches(self, src_port: int, dst_port: int) -> bool:
        """True when either endpoint port belongs to the protocol."""
        ports = self.ports
        return src_port in ports or dst_port in ports

    # -- the wire form ------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The JSON-able metadata form (no callables)."""
        return {
            "name": self.name,
            "title": self.title,
            "ports": list(self.ports),
            "tokens": list(self.tokens),
        }


# Populated only at import time by the package ``__init__`` (each
# bundled protocol module registers its spec on import), so every
# shard worker rebuilds the identical registry when it imports this
# package — there is no cross-process divergence to guard against.
_REGISTRY: dict[str, ProtocolSpec]
_REGISTRY = {}  # staticcheck: ignore[shard-safety] -- import-time only


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Register ``spec`` under its name (idempotent re-registration
    of the identical spec is allowed; a conflicting one is an error).
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(
            f"protocol {spec.name!r} already registered "
            "with a different spec")
    _REGISTRY[spec.name] = spec
    return spec


def registered_names() -> tuple[str, ...]:
    """The registered protocol names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a spec by name; unknown names list the registry."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ValueError(
            f"unknown protocol {name!r} (registered: {known})")
    return spec


def all_protocols() -> tuple[ProtocolSpec, ...]:
    """Every registered spec, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def detect_protocol(src_port: int,
                    dst_port: int) -> ProtocolSpec | None:
    """The registered spec owning either port, or ``None``.

    This is the demux's port-based auto-detect: the first routed
    packet of a link decides the link's protocol hint.  Specs are
    consulted in name order, so the answer is deterministic even if
    two specs ever claimed the same port.
    """
    for name in sorted(_REGISTRY):
        spec = _REGISTRY[name]
        if spec.matches(src_port, dst_port):
            return spec
    return None
