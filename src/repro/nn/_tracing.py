"""Trace hook shared by the autodiff engine and the compiled executor.

``repro.nn.compile`` installs a tracer here for the duration of exactly one
eager training step; the op sites in ``tensor.py`` / ``functional.py`` report
every primitive node they create (plus the data-dependent auxiliary leaves:
dropout masks, softmax max-shifts, fixed-feature gathers) so the executor can
compile the step into a replayable tape.

This module deliberately holds nothing but the hook slot — no imports from
``repro.nn`` — so both the engine and the compiler can import it without
cycles.  The engine's per-op cost when tracing is off is a single module
attribute load and an ``is None`` check, the same discipline as the
sanitizer's ``_ACTIVE`` flag.
"""

from __future__ import annotations

#: The active tracer (``repro.nn.compile._Tracer``) or ``None``.
TRACER = None

# Primitive-kind metadata shared by the compiler (``repro.nn.compile``)
# and the static tape verifier (``repro.tooling.analyzer.tape_verifier``,
# a CI check that training never imports).
# Keeping the sets here — instead of two private copies — means a new
# primitive must be classified exactly once.

#: graph-node kinds whose output may be a live *view* of its parent's
#: buffer (the compiler then emits no kernel for the node).
VIEW_KINDS = frozenset({"reshape", "transpose", "swapaxes", "getitem"})

#: auxiliary (non-node) record kinds: data-dependent constants that are
#: regenerated on every replay.
AUX_KINDS = frozenset({"rng_mask", "reduce_max", "fixed_gather"})

#: every graph-node kind the tracer can report (= the compiler's forward
#: kernel table).
NODE_KINDS = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "matmul",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "softplus", "abs",
    "leaky_relu", "sum", "reshape", "transpose", "swapaxes", "getitem",
    "concat", "stack", "embedding", "fused_dense", "bce",
})
