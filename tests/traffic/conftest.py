"""Shared-memory hygiene for the traffic tests.

A segment that outlives its pool is reported only by the multiprocessing
resource tracker — another process, at interpreter exit — so no test
could see it.  Every test here is bracketed by a listing of ``/dev/shm``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

SHM_DIR = Path("/dev/shm")


def shm_segments():
    """Names of the ``multiprocessing.shared_memory`` segments that exist."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("psm_*")}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"shared-memory segments survived the test: {leaked}"
