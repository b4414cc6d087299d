"""repro — reproduction of "Uncharted Networks: A First Measurement
Study of the Bulk Power System" (IMC 2020).

Subpackages:

* :mod:`repro.iec104`   — IEC 60870-5-104 protocol: frames, ASDUs, the
  strict baseline parser and the paper's tolerant profile-inferring
  parser, connection state machine, timers.
* :mod:`repro.netstack` — from-scratch Ethernet/IPv4/TCP codecs, pcap
  file I/O, TCP reassembly, flow tracking.
* :mod:`repro.simnet`   — discrete-event simulator of the federated
  bulk-power SCADA network (the stand-in for the proprietary captures).
* :mod:`repro.grid`     — power-system physics: generators, load,
  frequency, AGC, and the Fig. 21 activation signature.
* :mod:`repro.analysis` — the paper's measurement pipeline: compliance,
  TCP flows, session clustering, Markov/N-gram profiling, outstation
  classification, physical DPI.
* :mod:`repro.datasets` — the paper's topology as data and
  deterministic Y1/Y2 synthetic capture generation.

Quickstart::

    from repro.datasets import generate_capture, CaptureConfig
    from repro.analysis import extract_apdus, FlowAnalysis

    capture = generate_capture(1, CaptureConfig(time_scale=0.02))
    events = extract_apdus(capture)
    flows = FlowAnalysis.from_packets("Y1", capture)
    print(flows.summary().rows())
"""

__version__ = "1.7.0"

__all__ = ["__version__"]
