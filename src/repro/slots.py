"""Slot setters: how a decoder builds the values it has checked.

The capture decode path (the Ethernet/IPv4/TCP layers, pcap records
and packets, and every IEC 104 frame, ASDU, object, element and time
tag) builds ``slots=True`` dataclasses. A decoder that has checked
every value itself builds ``object.__new__(cls)`` and calls one slot
setter per field, skipping ``__init__`` and ``__post_init__``; every
other caller builds through the validating constructor. A stream
pipeline builds its link snapshots and stage counters the same way.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable


def slot_setters(cls: type[Any]) -> tuple[Callable[[Any, Any], None], ...]:
    """Each field's slot setter of the slotted dataclass ``cls``, in
    field order."""
    return tuple(cls.__dict__[field.name].__set__ for field in fields(cls))
