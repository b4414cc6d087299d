"""The package re-exports deprecated in 1.2.0 are gone as of 1.3.0."""

from __future__ import annotations

import importlib
import warnings

import pytest

import repro.iec104


class TestDeprecatedReExports:
    def test_decode_apdu_is_removed(self):
        with pytest.raises(AttributeError):
            repro.iec104.decode_apdu
        assert "decode_apdu" not in repro.iec104.__all__

    def test_split_frames_is_removed(self):
        with pytest.raises(AttributeError):
            repro.iec104.split_frames
        assert "split_frames" not in repro.iec104.__all__

    def test_unknown_attribute_is_still_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.iec104.definitely_not_a_symbol

    def test_submodule_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apci = importlib.import_module("repro.iec104.apci")
            codec = importlib.import_module("repro.iec104.codec")
        assert callable(apci.decode_apdu)
        assert callable(codec.TolerantParser)
