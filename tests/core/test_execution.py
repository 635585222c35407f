"""Execution settings: packing is serial, and the config refuses anything else.

``NovaConfig.packing_workers`` and ``execution_backend`` survive only as
pinned fields (1 and ``"serial"``); every other value is rejected.
"""

import pytest

from repro.core.config import NovaConfig


class TestWorkerResolution:
    def test_non_numeric_string_rejected(self):
        with pytest.raises(ValueError, match="parallel packing was removed"):
            NovaConfig(packing_workers="many")

    def test_zero_and_negative_rejected(self):
        for workers in (0, -2, "auto", 2):
            with pytest.raises(ValueError, match="parallel packing was removed"):
                NovaConfig(packing_workers=workers)

    def test_config_rejects_unknown_backend(self):
        for backend in ("gpu", "thread", "process"):
            with pytest.raises(ValueError, match="parallel packing was removed"):
                NovaConfig(execution_backend=backend)
