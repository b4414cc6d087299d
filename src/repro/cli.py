"""Command-line interface.

Two subcommands mirror the paper's workflow:

* ``repro generate`` — produce a synthetic Y1/Y2 capture as a classic
  pcap file plus a JSON host-name map (the "operator documentation");
* ``repro analyze`` — run any of the Section 6 analyses over a pcap
  (ours or anyone else's IEC 104 capture) and print the tables.

Usage::

    python -m repro.cli generate --year 1 --scale 0.02 --out y1.pcap
    python -m repro.cli analyze y1.pcap --names y1.names.json \
        --report flows compliance typeids classify markov timing
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (ConnectionChains, FlowAnalysis, PacketCapture,
                       analyze_compliance, classify_all, extract_apdus,
                       render_table, symbol_table, timing_profiles,
                       type_distribution, type_id_distribution)
from .datasets import CaptureConfig, generate_capture
from .netstack.addresses import IPv4Address
from .netstack.packet import decode_records
from .netstack.pcap import PcapError, PcapReader
from .netstack.pcapng import PcapngError, PcapngReader, sniff_format

REPORTS = ("flows", "compliance", "typeids", "symbols", "classify",
           "markov", "timing")


def _names_path(pcap_path: Path) -> Path:
    return pcap_path.with_suffix(".names.json")


def cmd_generate(args: argparse.Namespace,
                 out=sys.stdout) -> int:
    config = CaptureConfig(seed=args.seed, time_scale=args.scale,
                           workers=args.workers)
    capture = generate_capture(args.year, config)
    pcap_path = Path(args.out)
    fmt = args.format
    if fmt is None:
        fmt = ("pcapng" if pcap_path.suffix in (".pcapng", ".ntar")
               else "pcap")
    with open(pcap_path, "wb") as stream:
        if fmt == "pcapng":
            count = capture.to_pcapng(stream)
        else:
            count = capture.to_pcap(stream)
    names = {str(address): name
             for address, name in capture.host_names().items()}
    names_path = _names_path(pcap_path)
    names_path.write_text(json.dumps(names, indent=2, sort_keys=True))
    print(f"wrote {count} packets to {pcap_path} "
          f"({pcap_path.stat().st_size} bytes)", file=out)
    print(f"wrote host names to {names_path}", file=out)
    return 0


def _load_names(path: str) -> dict[IPv4Address, str]:
    raw = json.loads(Path(path).read_text())
    return {IPv4Address.parse(address): name
            for address, name in raw.items()}


def _load_capture(path: str, names: dict[IPv4Address, str],
                  prog: str) -> PacketCapture:
    with open(path, "rb") as stream:
        try:
            if sniff_format(stream) == "pcapng":
                reader: PcapReader | PcapngReader = PcapngReader(stream)
            else:
                reader = PcapReader(stream)
            packets = list(decode_records(reader))
        except (PcapError, PcapngError) as exc:
            raise SystemExit(f"{prog}: {path}: {exc}")
    return PacketCapture(packets=packets, names=names)


def cmd_analyze(args: argparse.Namespace, out=sys.stdout) -> int:
    names = _host_names(args.names, [args.pcap])
    capture = _load_capture(args.pcap, names, "repro analyze")
    if getattr(args, "filter", None):
        from .netstack.filter import filter_packets
        before = len(capture.packets)
        capture.packets = filter_packets(capture.packets, args.filter,
                                         names=names)
        print(f"filter {args.filter!r}: {len(capture.packets)} of "
              f"{before} packets kept\n", file=out)
    if not capture.packets:
        print("no TCP/IPv4 packets found in capture", file=out)
        return 1
    reports = args.report or ["flows", "compliance", "typeids"]
    extraction = None
    if set(reports) - {"flows", "compliance"} \
            or getattr(args, "json", False):
        extraction = extract_apdus(capture)

    if getattr(args, "json", False):
        document = _analyze_json(reports, capture, extraction,
                                 Path(args.pcap).stem)
        print(json.dumps(document, indent=2, sort_keys=True), file=out)
        return 0

    for report in reports:
        if report == "flows":
            analysis = FlowAnalysis.from_packets(
                Path(args.pcap).stem, capture)
            print(render_table(["Flow class", "Count (proportion)"],
                               analysis.summary().rows(),
                               title="TCP flows (Table 3)"), file=out)
        elif report == "compliance":
            compliance = analyze_compliance(capture)
            rows = [(host.host, host.frames,
                     f"{100 * host.strict_malformed_fraction:.1f}%",
                     host.explanation)
                    for host in sorted(compliance.hosts.values(),
                                       key=lambda h: h.host)
                    if host.frames]
            print(render_table(["Host", "I-frames", "Strict-malformed",
                                "Verdict"], rows,
                               title="IEC 104 compliance (§6.1)"),
                  file=out)
        elif report == "typeids":
            distribution = type_id_distribution(extraction)
            rows = [(token, count, f"{pct:.3f}%")
                    for token, count, pct in distribution.rows()]
            print(render_table(["TypeID", "Count", "Share"], rows,
                               title="ASDU typeIDs (Table 7)"),
                  file=out)
        elif report == "symbols":
            rows = [(row.token, row.station_count,
                     ",".join(row.symbols))
                    for row in symbol_table(extraction)]
            print(render_table(["TypeID", "Stations", "Symbols"], rows,
                               title="Physical symbols (Table 8)"),
                  file=out)
        elif report == "classify":
            distribution = type_distribution(classify_all(extraction))
            rows = [(kind, description, count, f"{pct:.1f}%")
                    for kind, description, count, pct
                    in distribution.rows()]
            print(render_table(["Type", "Description", "Count",
                                "Share"], rows,
                               title="Outstation types (Table 6)"),
                  file=out)
        elif report == "markov":
            chains = ConnectionChains.from_extraction(extraction)
            rows = [(f"{a}-{b}", nodes, edges)
                    for (a, b), nodes, edges in chains.sizes()]
            print(render_table(["Connection", "Nodes", "Edges"], rows,
                               title="Markov chain sizes (Fig. 13)"),
                  file=out)
        elif report == "timing":
            profiles = timing_profiles(extraction)
            rows = [(f"{src}->{dst}", profile.stats.count,
                     f"{profile.stats.mean:.2f}s",
                     f"{profile.stats.cv:.2f}",
                     (f"{profile.periodicity.period:.0f}s"
                      if profile.periodicity.is_periodic else "-"),
                     f"{profile.mean_rate_bps:.0f}")
                    for (src, dst), profile in
                    ((p.session, p) for p in profiles)]
            print(render_table(["Session", "Packets", "Mean gap", "CV",
                                "Period", "bps"], rows,
                               title="Session timing profiles"),
                  file=out)
        else:  # pragma: no cover - argparse choices prevent this
            raise AssertionError(report)
        print(file=out)
    return 0


def _analyze_json(reports, capture, extraction,
                  label: str) -> dict:
    """Machine-readable form of the analysis reports."""
    document: dict = {"capture": label,
                      "packets": len(capture.packets)}
    if "flows" in reports:
        summary = FlowAnalysis.from_packets(label, capture).summary()
        document["flows"] = {
            "sub_second_short": summary.sub_second_short,
            "longer_short": summary.longer_short,
            "short_lived": summary.short_lived,
            "long_lived": summary.long_lived,
            "short_fraction": round(summary.short_fraction, 4),
        }
    if "compliance" in reports:
        report = analyze_compliance(capture)
        document["compliance"] = {
            host.host: {
                "frames": host.frames,
                "strict_malformed": host.strict_malformed,
                "verdict": host.explanation,
            }
            for host in report.hosts.values() if host.frames}
    if "typeids" in reports:
        distribution = type_id_distribution(extraction)
        document["typeids"] = {
            token: {"count": count, "share": round(share, 4)}
            for token, count, share in distribution.rows()}
    if "symbols" in reports:
        document["symbols"] = {
            row.token: {"stations": row.station_count,
                        "symbols": list(row.symbols)}
            for row in symbol_table(extraction)}
    if "classify" in reports:
        distribution = type_distribution(classify_all(extraction))
        document["outstation_types"] = {
            str(int(kind)): {"description": description,
                             "count": count,
                             "share": round(share, 2)}
            for kind, description, count, share in distribution.rows()}
    if "markov" in reports:
        chains = ConnectionChains.from_extraction(extraction)
        document["markov"] = {
            f"{a}-{b}": {"nodes": nodes, "edges": edges}
            for (a, b), nodes, edges in chains.sizes()}
    if "timing" in reports:
        document["timing"] = {
            f"{src}->{dst}": {
                "packets": profile.stats.count,
                "mean_gap_s": round(profile.stats.mean, 4),
                "cv": round(profile.stats.cv, 4),
                "period_s": (round(profile.periodicity.period, 2)
                             if profile.periodicity.is_periodic
                             else None),
                "mean_rate_bps": round(profile.mean_rate_bps, 1),
            }
            for profile in timing_profiles(extraction)
            for src, dst in [profile.session]}
    return document


def cmd_attack(args: argparse.Namespace, out=sys.stdout) -> int:
    """Generate a labelled Industroyer-style attack capture."""
    from .iec104.constants import TypeID
    from .simnet.attacker import ReconnaissanceMode, run_attack
    from .simnet.behaviors import (OutstationBehavior, OutstationType,
                                   PointConfig)
    points = [PointConfig(ioa=2001 + index, type_id=TypeID.M_ME_NC_1,
                          symbol="P", source=lambda _t: 100.0,
                          threshold=1e9)
              for index in range(args.points)]
    behavior = OutstationBehavior(
        name="O99", substation="S99",
        outstation_type=OutstationType.IDEAL, points=points)
    mode = (ReconnaissanceMode.INTERROGATION
            if args.mode == "interrogation"
            else ReconnaissanceMode.ITERATIVE_SCAN)
    result = run_attack(behavior, mode,
                        scan_range=(2001, 2001 + args.scan_range - 1),
                        seed=args.seed)
    pcap_path = Path(args.out)
    with open(pcap_path, "wb") as stream:
        count = result.tap.to_pcap(stream)
    names = {str(address): name
             for address, name in result.host_names().items()}
    _names_path(pcap_path).write_text(
        json.dumps(names, indent=2, sort_keys=True))
    print(f"attack mode: {mode.value}", file=out)
    print(f"probes sent: {result.probes_sent}; IOAs discovered: "
          f"{len(result.discovered_ioas)}; commands sent: "
          f"{result.commands_sent}", file=out)
    print(f"wrote {count} packets to {pcap_path}", file=out)
    return 0


def cmd_cache(args: argparse.Namespace, out=sys.stdout) -> int:
    """Inspect or empty the content-addressed capture cache."""
    from .perf import cache_dir, clear_cache, list_entries
    if args.action == "clear":
        removed = clear_cache()
        print(f"removed {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'} from {cache_dir()}",
              file=out)
        return 0
    entries = list_entries()
    print(f"cache dir: {cache_dir()}", file=out)
    if not entries:
        print("(empty)", file=out)
        return 0
    for meta in entries:
        scale = meta.get("config", {}).get("time_scale", "?")
        print(f"{meta['key'][:16]}  year={meta.get('year', '?')} "
              f"scale={scale} packets={meta.get('packets', '?')} "
              f"{meta.get('pcap_bytes', 0)} bytes", file=out)
    return 0


def cmd_lint(args: argparse.Namespace, out=sys.stdout) -> int:
    """Run the project staticcheck linter (see docs/static-analysis.md)."""
    from .devtools.staticcheck.cli import run_lint
    return run_lint(args, out=out)


def cmd_scenario(args: argparse.Namespace, out=sys.stdout) -> int:
    """List or emit the registered labeled attack scenarios."""
    from .scenarios import all_scenarios, build_scenario
    if args.action == "list":
        for registered in all_scenarios():
            spec = registered.spec
            print(f"{spec.name:<24} {spec.family:<22} seed={spec.seed}"
                  f" {spec.title}", file=out)
        return 0
    run = build_scenario(args.name, scale=args.scale)
    pcap_path, names_path, truth_path = run.write(Path(args.out))
    print(f"wrote {len(run.packets)} packets to {pcap_path}", file=out)
    print(f"wrote host names to {names_path}", file=out)
    print(f"wrote ground truth to {truth_path}", file=out)
    return 0


def cmd_bench(args: argparse.Namespace, out=sys.stdout) -> int:
    """Detection benchmark over the scenario corpus."""
    from .scenarios.bench import run_detect_bench
    return run_detect_bench(args, out=out)


def _host_names(explicit: str | None,
                paths: list[str]) -> dict[IPv4Address, str]:
    """The host-name map: --names, else every per-capture sidecar."""
    if explicit is not None:
        return _load_names(explicit)
    names: dict[IPv4Address, str] = {}
    for path in paths:
        candidate = _names_path(Path(path))
        if candidate.exists():
            names.update(_load_names(str(candidate)))
    return names


def _check_protocol(name: str, prog: str) -> str:
    """Validate a protocol name against the registry (clear error)."""
    from .protocols import get_protocol
    try:
        get_protocol(name)
    except ValueError as exc:
        raise SystemExit(f"{prog}: {exc}")
    return name


def _parse_link_specs(specs: list[str],
                      prog: str = "repro monitor"
                      ) -> list[tuple[str, str, str | None]]:
    """Parse ``NAME=PATH[@proto]`` link specs.

    The optional ``@proto`` suffix binds that link to one registered
    protocol, overriding both the ``--protocol`` default and the
    demux's port-based auto-detect.
    """
    links = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(
                f"{prog}: --link needs NAME=PATH[@proto], "
                f"got {spec!r}")
        proto: str | None = None
        if "@" in path:
            path, _at, proto = path.rpartition("@")
            if not path or not proto:
                raise SystemExit(
                    f"{prog}: --link needs NAME=PATH[@proto], "
                    f"got {spec!r}")
            _check_protocol(proto, prog)
        links.append((name, path, proto))
    return links


def _build_monitor_target(args: argparse.Namespace, prog: str):
    """Construct the monitor/fleet target both loops drive.

    Shared by ``repro monitor`` and ``repro serve``: validates the
    capture/--link/--demux/--workers combination and returns
    ``(target, sources, sharded)``.  The caller owns the cleanup of
    ``sources`` and ``sharded``.
    """
    import os
    import stat as stat_module

    from .stream import (FleetSupervisor, LinkDemux,
                         MonitorPipelineFactory,
                         ShardedFleetSupervisor, open_capture)
    from .stream.monitor import MonitorTarget
    link_specs = _parse_link_specs(args.links or [], prog)
    if bool(args.pcap) == bool(link_specs):
        raise SystemExit(f"{prog}: give one capture path or "
                         "one or more --link NAME=PATH, not both")
    if args.demux and not args.pcap:
        raise SystemExit(
            f"{prog}: --demux needs a merged capture path")

    workers = args.workers
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise SystemExit(
            f"{prog}: --workers must be >= 0, got {workers}")

    paths = [path for _name, path, _proto in link_specs] \
        or [args.pcap]
    if workers > 1:
        if not (args.demux or link_specs):
            raise SystemExit(
                f"{prog}: --workers needs a fleet (--demux or "
                "--link NAME=PATH); a single-link monitor has "
                "nothing to shard")
        for path in paths:
            try:
                regular = stat_module.S_ISREG(os.stat(path).st_mode)
            except OSError as exc:
                raise SystemExit(
                    f"{prog}: cannot stat {path!r}: {exc}")
            if not regular:
                hint = (" (--follow on a pipe cannot be sharded)"
                        if args.follow else "")
                raise SystemExit(
                    f"{prog}: --workers needs seekable regular "
                    "capture files — every worker opens its own "
                    f"reader — but {path!r} is not a regular "
                    f"file{hint}")

    names = _host_names(args.names, paths)
    default_protocol = _check_protocol(args.protocol, prog)
    link_protocols = tuple((name, proto)
                           for name, _path, proto in link_specs
                           if proto is not None)
    detect_after_us = (int(args.detect_after * 1_000_000)
                       if args.detect_after is not None else None)
    factory = MonitorPipelineFactory(names=names,
                                     reassemble=args.reassemble,
                                     evict=not args.no_evict,
                                     protocol=default_protocol,
                                     link_protocols=link_protocols,
                                     detect_after_us=detect_after_us)
    sources = []
    sharded: ShardedFleetSupervisor | None = None
    if workers > 1:
        sharded = ShardedFleetSupervisor(
            factory, workers=workers,
            path=args.pcap if args.demux else None,
            links=tuple((name, path)
                        for name, path, _proto in link_specs),
            names=names, follow=args.follow)
        target: MonitorTarget = sharded
    elif link_specs:
        fleet = FleetSupervisor()
        for name, path, _proto in link_specs:
            source = open_capture(path, args.follow)
            sources.append(source)
            fleet.add_link(factory(name, source), name=name)
        target = fleet
    elif args.demux:
        source = open_capture(args.pcap, args.follow)
        sources.append(source)
        demux = LinkDemux(source, names=names)
        target = FleetSupervisor(demux=demux,
                                 pipeline_factory=factory)
    else:
        source = open_capture(args.pcap, args.follow)
        sources.append(source)
        target = factory(Path(args.pcap).stem, source)
    return target, sources, sharded


def cmd_monitor(args: argparse.Namespace, out=sys.stdout) -> int:
    """Stream growing capture(s) through the online pipeline.

    One positional capture runs the single-link monitor; repeated
    ``--link NAME=PATH`` runs a fleet with one pipeline per file; a
    positional capture plus ``--demux`` runs a fleet demultiplexed
    from the one merged file by endpoint pair. ``--workers N`` (on a
    fleet) partitions the links across N worker processes.
    """
    from .stream import run_monitor
    target, sources, sharded = _build_monitor_target(args,
                                                     "repro monitor")
    try:
        run_monitor(target, out, json_lines=args.json,
                    follow=args.follow, once=args.once,
                    interval_s=args.interval,
                    max_snapshots=args.snapshots)
    except (PcapError, PcapngError) as exc:
        # The tail source already names the file in the message.
        raise SystemExit(f"repro monitor: {exc}")
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print(file=out)
    finally:
        for source in sources:
            source.close()
        if sharded is not None:
            sharded.close()
    return 0


def cmd_serve(args: argparse.Namespace, out=sys.stdout) -> int:
    """Serve live snapshots over HTTP + WebSocket (see repro.serve).

    Composes the same monitor targets as ``repro monitor`` (single
    link, fleet, demux, sharded workers) with the asyncio serving
    stack: every poll is serialized once and broadcast to every
    subscriber; ``--history PATH`` additionally records each poll's
    served bytes to the sqlite store behind the time-travel
    endpoints.  The store opens first, so a store that cannot be
    used ends the command in one line before any capture is opened.
    """
    import asyncio
    import signal
    import sqlite3

    from .serve import HistoryStore, Retention, serve_until
    history: HistoryStore | None = None
    if args.history is not None:
        retain_age_us = (int(args.retain_age * 1_000_000)
                         if args.retain_age is not None else None)
        try:
            history = HistoryStore(
                args.history,
                retention=Retention(max_polls=args.retain_polls,
                                    max_age_us=retain_age_us))
        except ValueError as exc:
            raise SystemExit(f"repro serve: {exc}")
        except sqlite3.DatabaseError as exc:
            raise SystemExit(f"repro serve: {args.history}: {exc}")

    async def run(target) -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)

        def on_listening(host: str, port: int) -> None:
            print(f"serving http://{host}:{port} "
                  f"(ws://{host}:{port}/ws)", file=out, flush=True)

        return await serve_until(
            target, stop, host=args.host, port=args.port,
            history=history, follow=args.follow,
            interval_s=args.interval,
            max_polls=args.snapshots,
            on_listening=on_listening)

    sources, sharded = [], None
    try:
        target, sources, sharded = _build_monitor_target(
            args, "repro serve")
        polls = asyncio.run(run(target))
        print(f"served {polls} poll(s)", file=out, flush=True)
    except RuntimeError as exc:
        # The monitor thread hit a capture format error; the tail
        # source already names the file in the message.
        if isinstance(exc.__cause__, (PcapError, PcapngError)):
            raise SystemExit(f"repro serve: {exc.__cause__}")
        raise
    finally:
        for source in sources:
            source.close()
        if sharded is not None:
            sharded.close()
        if history is not None:
            history.close()
    return 0


def cmd_hypotheses(args: argparse.Namespace, out=sys.stdout) -> int:
    """Evaluate the paper's five hypotheses on a pair of captures."""
    from .analysis import evaluate_all
    # Each year's sidecar names its own capture: the simulator numbers
    # outstation addresses by roster position, which differs by year.
    y1_capture = _load_capture(args.pcap_y1,
                               _host_names(args.names, [args.pcap_y1]),
                               "repro hypotheses")
    y2_capture = _load_capture(args.pcap_y2,
                               _host_names(args.names, [args.pcap_y2]),
                               "repro hypotheses")
    y1 = extract_apdus(y1_capture)
    y2 = extract_apdus(y2_capture)
    for result in evaluate_all(y1_capture, y1, y2):
        print(result, file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bulk-power SCADA measurement reproduction "
                    "(IMC 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic Y1/Y2 capture as pcap")
    generate.add_argument("--year", type=int, choices=(1, 2),
                          default=1)
    generate.add_argument("--scale", type=float, default=0.02,
                          help="fraction of the paper's capture "
                               "duration (default 0.02)")
    generate.add_argument("--seed", type=int, default=104)
    generate.add_argument("--workers", type=int, default=None,
                          help="simulate capture days independently "
                               "with N processes (deterministic for "
                               "any N; default: single-process "
                               "whole-year simulation)")
    generate.add_argument("--out", required=True,
                          help="output capture path")
    generate.add_argument("--format", choices=("pcap", "pcapng"),
                          default=None,
                          help="capture file format (default: by "
                               "--out extension, classic pcap unless "
                               ".pcapng)")
    generate.set_defaults(func=cmd_generate)

    analyze = sub.add_parser(
        "analyze", help="run the paper's analyses over a pcap")
    analyze.add_argument("pcap", help="input pcap file")
    analyze.add_argument("--names",
                         help="JSON host-name map (ip -> name); "
                              "defaults to the <capture>.names.json "
                              "sidecar if present")
    analyze.add_argument("--report", nargs="+", choices=REPORTS,
                         help="which analyses to run "
                              f"(default: flows compliance typeids)")
    analyze.add_argument("--filter",
                         help="display filter, e.g. "
                              "'iec104 and host == O37'")
    analyze.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of "
                              "tables")
    analyze.set_defaults(func=cmd_analyze)

    attack = sub.add_parser(
        "attack", help="generate a labelled Industroyer-style attack "
                       "capture against a synthetic RTU")
    attack.add_argument("--mode", choices=("scan", "interrogation"),
                        default="scan")
    attack.add_argument("--points", type=int, default=8,
                        help="points defined at the victim RTU")
    attack.add_argument("--scan-range", type=int, default=40,
                        dest="scan_range",
                        help="IOAs probed in scan mode")
    attack.add_argument("--seed", type=int, default=66)
    attack.add_argument("--out", required=True,
                        help="output pcap path")
    attack.set_defaults(func=cmd_attack)

    cache = sub.add_parser(
        "cache", help="inspect or empty the capture cache "
                      "(see docs/performance.md)")
    cache.add_argument("action", choices=("ls", "clear"),
                       help="ls: list entries; clear: delete all")
    cache.set_defaults(func=cmd_cache)

    lint = sub.add_parser(
        "lint", help="run the project staticcheck linter "
                     "(protocol-conformance and determinism rules)")
    from .devtools.staticcheck.cli import add_lint_arguments
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    scenario = sub.add_parser(
        "scenario", help="list or emit the registered labeled attack "
                         "scenarios (see docs/scenarios.md)")
    scenario_sub = scenario.add_subparsers(dest="action",
                                           required=True)
    scenario_list = scenario_sub.add_parser(
        "list", help="list every registered scenario")
    scenario_list.set_defaults(func=cmd_scenario)
    scenario_emit = scenario_sub.add_parser(
        "emit", help="build one scenario and write its capture, "
                     "host-name map and ground-truth sidecar")
    scenario_emit.add_argument("name", help="registered scenario name")
    scenario_emit.add_argument("--out", required=True,
                               help="output capture path (.pcapng "
                                    "for pcapng; sidecars are written "
                                    "next to it)")
    scenario_emit.add_argument("--scale", type=float, default=1.0,
                               help="time-compression factor for the "
                                    "scenario timeline (default 1.0)")
    scenario_emit.set_defaults(func=cmd_scenario)

    bench = sub.add_parser(
        "bench", help="seeded benchmark suites with committed "
                      "baselines")
    bench_sub = bench.add_subparsers(dest="suite", required=True)
    detect = bench_sub.add_parser(
        "detect", help="score the online detector over the labeled "
                       "scenario corpus (writes BENCH_detect.json)")
    detect.add_argument("--out", default="BENCH_detect.json",
                        help="benchmark document path "
                             "(default BENCH_detect.json)")
    detect.add_argument("--quick", action="store_true",
                        help="run only the scaled-down quick mode "
                             "(the CI gate's mode)")
    detect.add_argument("--check", action="store_true",
                        help="re-measure and gate recall/precision "
                             "against the committed document instead "
                             "of rewriting it")
    detect.add_argument("--headroom", type=float, default=0.0,
                        help="allowed drop below the committed "
                             "metric before --check fails "
                             "(default 0.0 — the corpus is seeded)")
    detect.set_defaults(func=cmd_bench)

    def add_target_arguments(
            parser: argparse.ArgumentParser) -> None:
        """The shared monitor-target flags of monitor and serve."""
        parser.add_argument("pcap", nargs="?", default=None,
                            help="input pcap/pcapng file (may still "
                                 "be written to with --follow); omit "
                                 "when using --link")
        parser.add_argument("--link", action="append", dest="links",
                            metavar="NAME=PATH[@proto]",
                            help="monitor a fleet: one pipeline per "
                                 "NAME=PATH capture (repeatable); "
                                 "@proto binds that link to one "
                                 "registered protocol spec")
        parser.add_argument("--protocol", default="iec104",
                            metavar="NAME",
                            help="default protocol spec links bind "
                                 "to (default iec104; per-link "
                                 "@proto and the demux port "
                                 "auto-detect override it)")
        parser.add_argument("--demux", action="store_true",
                            help="split the one merged capture into "
                                 "per-link pipelines by endpoint "
                                 "pair")
        parser.add_argument("--workers", type=int, default=1,
                            metavar="N",
                            help="shard a fleet's links across N "
                                 "worker processes (needs --demux or "
                                 "--link; 0 = one per CPU core; "
                                 "default 1 runs everything "
                                 "in-process; captures must be "
                                 "seekable regular files since every "
                                 "worker opens its own reader)")
        parser.add_argument("--names",
                            help="JSON host-name map (ip -> name); "
                                 "defaults to the <capture>."
                                 "names.json sidecar(s) if present")
        parser.add_argument("--follow", action="store_true",
                            help="keep polling for appended packets "
                                 "(tail -f mode)")
        parser.add_argument("--interval", type=float, default=2.0,
                            help="seconds between snapshots "
                                 "(default 2.0)")
        parser.add_argument("--snapshots", type=int, default=None,
                            help="stop after N periodic snapshots")
        parser.add_argument("--detect-after", type=float,
                            default=None, dest="detect_after",
                            metavar="SECONDS",
                            help="the whitelist detector learns every "
                                 "event before this capture time and "
                                 "scores every event from it on")
        parser.add_argument("--reassemble", action="store_true",
                            help="TCP-reassemble before decoding "
                                 "instead of the paper's per-packet "
                                 "parse")
        parser.add_argument("--no-evict", action="store_true",
                            dest="no_evict",
                            help="disable idle-state eviction")

    monitor = sub.add_parser(
        "monitor", help="stream (possibly growing) captures through "
                        "the online analysis pipeline")
    add_target_arguments(monitor)
    monitor.add_argument("--once", action="store_true",
                         help="drain, print one snapshot, exit")
    monitor.add_argument("--json", action="store_true",
                         help="JSON-lines snapshots instead of text")
    monitor.set_defaults(func=cmd_monitor)

    serve = sub.add_parser(
        "serve", help="serve live snapshots over HTTP + WebSocket "
                      "(see docs/streaming.md)")
    add_target_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8104,
                       help="TCP port; 0 picks a free one "
                            "(default 8104)")
    serve.add_argument("--history", default=None, metavar="PATH",
                       help="record the bytes served at every poll "
                            "to a sqlite store at PATH (':memory:' "
                            "for ephemeral) enabling /fleet/at and "
                            "/links/<name>/history")
    serve.add_argument("--retain-polls", type=int, default=None,
                       dest="retain_polls", metavar="N",
                       help="keep only the newest N polls in the "
                            "history store (default: unbounded)")
    serve.add_argument("--retain-age", type=float, default=None,
                       dest="retain_age", metavar="SECONDS",
                       help="drop history polls older than this many "
                            "seconds of capture time behind the "
                            "newest poll (combines with "
                            "--retain-polls; default: unbounded)")
    serve.set_defaults(func=cmd_serve)

    hypotheses = sub.add_parser(
        "hypotheses", help="evaluate the paper's five hypotheses over "
                           "two yearly captures")
    hypotheses.add_argument("pcap_y1")
    hypotheses.add_argument("pcap_y2")
    hypotheses.add_argument("--names",
                            help="JSON host-name map (ip -> name) "
                                 "for both captures; defaults to "
                                 "each capture's own <capture>."
                                 "names.json sidecar if present")
    hypotheses.set_defaults(func=cmd_hypotheses)
    return parser


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, out=out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
