"""repro.stream — online streaming analysis and monitoring engine.

Push-based, bounded-memory counterpart to the batch analysis layer:
packets flow from a :class:`~repro.stream.ingest.Source` through the
:class:`~repro.stream.pipeline.StreamPipeline` stages into incremental
analyzers that fold each item through the same kernels the batch
analyses use (see :mod:`repro.stream.analyzers`). ``repro monitor``
is the CLI front-end; :mod:`repro.stream.eviction` keeps long-running
state bounded.
"""

from ..analysis.flows import FlowTally
from .analyzers import (LiveFlowTable, OnlineChains, RollingFeatures,
                        RollingSessionWindows, StreamAnalyzer)
from .detector import DetectorMode, OnlineCombinedDetector
from .eviction import (T3_MULTIPLE, EvictionPolicy, EvictionStats,
                       default_idle_timeout_us)
from .fleet import (DEAD_AFTER_US, IDLE_AFTER_US, DemuxLinkSource,
                    FleetSupervisor, LinkDemux, fleet_view, link_health,
                    open_fleet)
from .ingest import (ByteChunk, CaptureSource, ListSource,
                     PcapngTailSource, PcapTailSource, Source,
                     TransportTap, open_capture)
from .monitor import render_json, render_text, run_monitor
from .pipeline import STAGES, StageTally, StreamPipeline
from .shard import (MonitorPipelineFactory, ShardAccept,
                    ShardedFleetSupervisor, ShardWorkerError,
                    WorkerConfig, run_shard_worker, shard_of)
from .snapshots import (SNAPSHOT_SCHEMA_VERSION, FleetSnapshot,
                        FleetTally, LinkAnomaly, LinkHealth,
                        LinkSnapshot, StageCounters)

__all__ = [
    "ByteChunk", "CaptureSource", "DEAD_AFTER_US", "DemuxLinkSource",
    "DetectorMode", "EvictionPolicy", "EvictionStats", "FleetSnapshot",
    "FleetSupervisor", "FleetTally", "FlowTally", "IDLE_AFTER_US",
    "LinkAnomaly", "LinkDemux", "LinkHealth", "LinkSnapshot", "ListSource",
    "LiveFlowTable", "MonitorPipelineFactory",
    "OnlineChains", "OnlineCombinedDetector", "PcapTailSource",
    "PcapngTailSource", "RollingFeatures", "RollingSessionWindows",
    "SNAPSHOT_SCHEMA_VERSION", "STAGES", "ShardAccept",
    "ShardWorkerError", "ShardedFleetSupervisor", "Source",
    "StageCounters", "StageTally", "StreamAnalyzer", "StreamPipeline",
    "T3_MULTIPLE", "TransportTap", "WorkerConfig",
    "default_idle_timeout_us", "fleet_view", "link_health",
    "open_capture", "open_fleet", "render_json", "render_text",
    "run_monitor", "run_shard_worker", "shard_of",
]
