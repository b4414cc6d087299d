"""Table 5: the 54 IEC 104 typeIDs — catalog plus codec round-trip."""

import pathlib
import sys

from _common import record, run_once

from repro.analysis import render_table
from repro.iec104 import TYPE_ID_DESCRIPTIONS, TypeID
from repro.iec104.information_elements import ELEMENT_CODECS

# The repo root, so the codec tests' samples import as the package
# module ``tests.iec104.samples``, never as a test module.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from tests.iec104.samples import SAMPLES  # noqa: E402


def test_table5_typeids(benchmark):
    def roundtrip_all():
        # Exercise every typeID's codec via the shared test samples.
        verified = 0
        for type_id, codec in ELEMENT_CODECS.items():
            element = SAMPLES[type_id]
            encoded = codec.encode(element)
            decoded, consumed = codec.decode(memoryview(encoded), 0)
            assert consumed == len(encoded)
            verified += 1
        return verified

    verified = run_once(benchmark, roundtrip_all)

    rows = [(int(type_id), type_id.name, TYPE_ID_DESCRIPTIONS[type_id])
            for type_id in sorted(TypeID)]
    record("table5_typeids", render_table(
        ["Type ID Code", "Acronym", "Description"], rows,
        title=f"Table 5 — all {verified} IEC 104 typeIDs "
              "(each codec round-trip verified)"))

    assert verified == 54
    assert len(rows) == 54
