"""Shared utilities: seeding, table formatting, hot-path profiling and the
benchmark journal writer."""

from . import profiling
from .journal import update_journal
from .seeding import spawn_rng, stable_seed
from .tables import format_table

__all__ = ["spawn_rng", "stable_seed", "format_table", "profiling",
           "update_journal"]
