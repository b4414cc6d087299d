"""Ground-truth sidecars: round-trips, validation, versioning."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.labels import LabeledInterval
from repro.scenarios import (GROUND_TRUTH_SCHEMA_VERSION, GroundTruth,
                             dump_truth, load_truth, truth_path)


def make_truth(**overrides):
    base = dict(
        scenario="demo-scenario", family="demo", seed=7, scale=1.0,
        detect_after_us=100_000_000,
        attacker_endpoints=("ATTACKER",),
        affected_ioas=(101, 102),
        intervals=(LabeledInterval(start_us=150_000_000,
                                   end_us=180_000_000,
                                   label="demo attack"),))
    base.update(overrides)
    return GroundTruth(**base)


class TestValidation:
    def test_valid(self):
        truth = make_truth()
        assert truth.onset_us == 150_000_000

    def test_needs_attacker_endpoints(self):
        with pytest.raises(ValueError, match="attacker endpoint"):
            make_truth(attacker_endpoints=())

    def test_needs_intervals(self):
        with pytest.raises(ValueError, match="interval"):
            make_truth(intervals=())

    def test_detect_after_must_be_positive(self):
        with pytest.raises(ValueError, match="detect_after_us"):
            make_truth(detect_after_us=0)

    def test_onset_may_not_precede_boundary(self):
        with pytest.raises(ValueError, match="onset"):
            make_truth(detect_after_us=160_000_000)

    def test_interval_end_may_not_precede_start(self):
        with pytest.raises(ValueError, match="precedes"):
            LabeledInterval(start_us=10, end_us=5)


class TestWireForm:
    def test_round_trip(self):
        truth = make_truth()
        assert GroundTruth.from_json(truth.to_json()) == truth

    def test_protocol_round_trip(self):
        truth = make_truth(protocol="modbus")
        document = truth.to_json()
        assert document["protocol"] == "modbus"
        assert GroundTruth.from_json(document).protocol == "modbus"

    def test_protocol_defaults_to_iec104_for_older_sidecars(self):
        document = make_truth().to_json()
        del document["protocol"]
        assert GroundTruth.from_json(document).protocol == "iec104"

    def test_dump_is_byte_stable(self):
        assert dump_truth(make_truth()) == dump_truth(make_truth())
        assert dump_truth(make_truth()).endswith("\n")

    def test_schema_version_is_stamped(self):
        document = make_truth().to_json()
        assert document["schema"] == GROUND_TRUTH_SCHEMA_VERSION

    def test_unsupported_schema_rejected(self):
        document = make_truth().to_json()
        document["schema"] = GROUND_TRUTH_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            GroundTruth.from_json(document)

    def test_load_truth(self, tmp_path):
        path = tmp_path / "demo.truth.json"
        truth = make_truth()
        path.write_text(dump_truth(truth))
        assert load_truth(path) == truth

    def test_load_rejects_tampered_labels(self, tmp_path):
        # A sidecar whose onset was edited behind the boundary must
        # not load: the replay would train on attack traffic.
        document = make_truth().to_json()
        document["intervals"][0]["start_us"] = 1
        path = tmp_path / "demo.truth.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="onset"):
            load_truth(path)


class TestPathConvention:
    def test_truth_path(self):
        assert truth_path(Path("out/y1.pcap")) \
            == Path("out/y1.truth.json")
        assert truth_path(Path("a.pcapng")) == Path("a.truth.json")


#: Any value ``json.loads`` can return (NaN and the infinities too).
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)

#: Every member of a valid sidecar, and of its first interval.
MEMBERS = ([(key,) for key in sorted(make_truth().to_json())]
           + [("intervals", 0, key)
              for key in sorted(make_truth().intervals[0].to_json())])

TOTALITY = settings(max_examples=300, deadline=None)


def loads_or_refuses(document) -> None:
    """``from_json`` returns ground truth that survives its own round
    trip, or raises ValueError; nothing else."""
    try:
        truth = GroundTruth.from_json(document)
    except ValueError:
        return
    assert GroundTruth.from_json(truth.to_json()) == truth


class TestLoadingTotality:
    def test_malformed_documents_raise_value_error(self):
        """Each shape that raised something else before."""
        base = make_truth().to_json()
        for key, value, message in (
                ("seed", None, "'seed'"),
                ("intervals", [5], "labeled interval"),
                ("attacker_endpoints", 3, "'attacker_endpoints'")):
            with pytest.raises(ValueError, match=message):
                GroundTruth.from_json({**base, key: value})
        with pytest.raises(ValueError, match="object"):
            GroundTruth.from_json([base])
        missing = dict(base)
        del missing["family"]
        with pytest.raises(ValueError, match="'family'"):
            GroundTruth.from_json(missing)

    @TOTALITY
    @given(document=JSON)
    def test_arbitrary_json(self, document):
        loads_or_refuses(document)

    @TOTALITY
    @given(path=st.sampled_from(MEMBERS), remove=st.booleans(),
           value=JSON)
    def test_one_member_removed_or_replaced(self, path, remove, value):
        document = make_truth().to_json()
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        if remove:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        loads_or_refuses(document)
