"""Shared utilities: seeding, table formatting and hot-path profiling."""

from . import profiling
from .seeding import spawn_rng, stable_seed
from .tables import format_table

__all__ = ["spawn_rng", "stable_seed", "format_table", "profiling"]
