"""Trace hook shared by the autodiff engine and the compiled executor.

``repro.nn.compile`` installs a tracer here for the duration of exactly one
eager training step; ``tensor._apply`` reports every graph node, and three
hooks in ``functional.py`` report the data-dependent auxiliary leaves
(dropout masks, softmax max-shifts, fixed-feature gathers), so the executor
can compile the step into a replayable tape.

This module deliberately holds nothing but the hook slot — no imports from
``repro.nn`` — so both the engine and the compiler can import it without
cycles.  The engine's per-op cost when tracing is off is a single module
attribute load and an ``is None`` check, the same discipline as the
sanitizer's ``_ACTIVE`` flag.
"""

from __future__ import annotations

#: The active tracer (``repro.nn.compile._Tracer``) or ``None``.
TRACER = None

