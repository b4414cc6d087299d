"""The whole-fleet rollup formula, kept as an oracle.

``FleetSnapshot.from_links`` and the running fleet fold their members
through one incremental kernel, ``FleetTally``. The function here is
the formula it replaced: one pass over every link at once, sharing no
code with the kernel, so ``test_fleet_tally.py`` compares two
implementations instead of one kernel with itself.
"""

from __future__ import annotations

from typing import Mapping

from repro.simnet.clock import Ticks
from repro.stream.snapshots import (TOP_ANOMALIES, FleetSnapshot,
                                    LinkAnomaly, LinkSnapshot,
                                    StageCounters)


def from_links(links: tuple[LinkSnapshot, ...], now_us: Ticks,
               health: Mapping[str, str] | None = None,
               unrouted: int = 0) -> FleetSnapshot:
    """Derive every aggregate field from the member snapshots."""
    stages: dict[str, StageCounters] = {}
    for link in links:
        for stage, counters in link.stages.items():
            stages[stage] = stages.get(stage,
                                       StageCounters()) + counters
    anomalies = sorted(
        (LinkAnomaly(link=link.link, alerts=link.alerts,
                     failures=link.failures,
                     order_violations=link.order_violations)
         for link in links),
        key=lambda entry: (tuple(-value for value in entry.score),
                           entry.link))
    top = tuple(entry for entry in anomalies[:TOP_ANOMALIES]
                if entry.score > (0, 0, 0))
    return FleetSnapshot(
        time_us=now_us,
        links=links,
        health=dict(health or {}),
        packets=sum(link.packets for link in links),
        events=sum(link.events for link in links),
        failures=sum(link.failures for link in links),
        late_items=sum(link.late_items for link in links),
        order_violations=sum(link.order_violations
                             for link in links),
        stages=stages,
        analyzers=rollup_analyzers(links),
        top_anomalies=top,
        unrouted=unrouted,
    )


def rollup_analyzers(
        links: tuple[LinkSnapshot, ...]) -> dict[str, dict[str, int]]:
    """Sum every integer analyzer counter across the fleet.

    Only keys whose value is an ``int`` in every link that reports
    them aggregate (``bool`` is excluded — flags are not counts);
    strings, floats, lists and nested dicts are per-link detail and
    stay out of the rollup.
    """
    rollup: dict[str, dict[str, int]] = {}
    skip: dict[str, set[str]] = {}
    for link in links:
        for name, data in link.analyzers.items():
            totals = rollup.setdefault(name, {})
            bad = skip.setdefault(name, set())
            for key, value in data.items():
                if key in bad:
                    continue
                if isinstance(value, bool) \
                        or not isinstance(value, int):
                    bad.add(key)
                    totals.pop(key, None)
                    continue
                totals[key] = totals.get(key, 0) + value
    return rollup
