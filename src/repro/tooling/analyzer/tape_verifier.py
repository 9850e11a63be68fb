"""Static verification of compiled kernel tapes.

``repro.nn.compile`` proves replay correctness *dynamically*: under
``replay_verify`` every replay re-runs the step eagerly and compares
op-by-op, doubling (at least) the cost of every verified step.  This
module proves the same invariants *statically*, once per tape, by
analyzing the recorded schedules:

1. **Abstract interpretation** — a shape/dtype lattice
   (:mod:`.lattice`) is propagated through every forward kernel and
   checked against the recorded concrete buffers; any disagreement
   (a shape the kernel cannot produce, a dtype drifting off the
   engine's float64 contract) is a finding.
2. **Aliasing** — the forward schedule must be single-assignment over
   disjoint byte intervals: every written buffer has exactly one
   writer, no two written buffers overlap, and no kernel output
   overlaps a parameter/staging/constant root.  Together with reads
   resolving (through view-alias chains) to an earlier def or a root,
   this proves no kernel reads a cell after an in-place overwrite.
3. **Backward dataflow** — the declarative backward plan is simulated
   over gradient cells: every cell is read only after its def, the
   static first-write/accumulate flags are consistent, cell shapes
   agree with their node buffers, and every trainable leaf's cell is
   defined.

A tape with no findings is **certified** (:class:`TapeCertificate`).
Certification is a CI check (``python -m repro.tooling.analyze``), not
part of training: the executor never certifies, and ``replay_verify``
always re-runs eagerly.  A verifier crash propagates, so the check
fails instead of passing silently.

The verifier duck-types the tape (``_trace_records``,
``_forward_kinds``, ``_backward_plan``, …) and imports nothing from
``repro.nn`` except the cycle-free kind metadata in
``repro.nn._tracing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...nn._tracing import AUX_KINDS, VIEW_KINDS
from .framework import Finding
from .lattice import TOP, AbstractValue, TransferError, transfer

try:  # numpy >= 2.0 moved byte_bounds out of the top-level namespace
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # pragma: no cover - numpy < 2.0
    byte_bounds = np.byte_bounds

__all__ = ["TapeCertificate", "certify"]

FRONTEND = "tape"

#: scratch buffers (recorded in aux) that a node's forward kernel writes
#: in addition to its output buffer.
_SCRATCH_WRITES = {
    "relu": ("mask",),
    "abs": ("sign",),
    "leaky_relu": ("scale",),
    "bce": ("per_sample", "weighted"),
}


@dataclass
class TapeCertificate:
    """The outcome of statically verifying one tape."""

    certified: bool
    bail_reason: str = ""
    findings: list = field(default_factory=list)
    n_records: int = 0
    n_kernels: int = 0
    n_backward: int = 0
    imprecise: int = 0


class _Op:
    """One record of the forward schedule, with its read/write buffers."""

    __slots__ = ("index", "kind", "record", "emitted", "writes", "reads")

    def __init__(self, index, kind, record, emitted, writes, reads):
        self.index = index
        self.kind = kind
        self.record = record
        self.emitted = emitted
        self.writes = writes
        self.reads = reads


def _node_writes(rec):
    writes = [rec.out.data]
    for key in _SCRATCH_WRITES.get(rec.kind, ()):
        arr = rec.aux.get(key)
        if isinstance(arr, np.ndarray) and not any(arr is w for w in writes):
            writes.append(arr)
    return writes


def _node_reads(rec):
    reads = [p.data for p in rec.parents]
    if rec.kind == "getitem" and isinstance(rec.aux.get("index"), np.ndarray):
        reads.append(rec.aux["index"])
    elif rec.kind == "embedding":
        reads.append(rec.aux["indices"])
    return reads


def _extract_ops(tape, name, findings):
    """The op stream, cross-checked against the emitted kernel kinds.

    Returns ``None`` (after recording a structure finding) when the
    record stream and the compiled kernel list disagree — the schedules
    cannot be trusted, so every downstream check is skipped.
    """
    ops = []
    kinds = list(tape._forward_kinds)
    ki = 0
    for index, rec in enumerate(tape._trace_records):
        if rec.out is None:
            if rec.kind not in AUX_KINDS:
                findings.append(_finding(
                    name, "tape-structure", index, rec.kind,
                    f"unknown auxiliary record kind {rec.kind!r}",
                ))
                return None
            emitted = True
            if rec.kind == "rng_mask":
                writes, reads = [rec.aux["array"]], []
            elif rec.kind == "reduce_max":
                writes = [rec.aux["array"]]
                reads = [rec.aux["source"].data]
            else:  # fixed_gather
                writes = [rec.aux["array"]]
                reads = [rec.aux["matrix"], rec.aux["indices"]]
        elif rec.kind in VIEW_KINDS and np.may_share_memory(
            rec.out.data, rec.parents[0].data
        ):
            # Alias node: the output is a live view of its parent; the
            # compiler emitted no kernel, replay does no work.
            emitted, writes, reads = False, [], []
        else:
            emitted = True
            writes, reads = _node_writes(rec), _node_reads(rec)
        if emitted:
            if ki >= len(kinds) or kinds[ki] != rec.kind:
                have = kinds[ki] if ki < len(kinds) else "<end>"
                findings.append(_finding(
                    name, "tape-structure", index, rec.kind,
                    f"record stream expects kernel {rec.kind!r} at position "
                    f"{ki}, compiled schedule has {have!r}",
                ))
                return None
            ki += 1
        ops.append(_Op(index, rec.kind, rec, emitted, writes, reads))
    if ki != len(kinds):
        findings.append(_finding(
            name, "tape-structure", len(ops), "",
            f"compiled schedule has {len(kinds) - ki} kernel(s) with no "
            "matching trace record",
        ))
        return None
    return ops


def _finding(name, rule, index, kind, message):
    symbol = f"op{index}:{kind}" if kind else f"op{index}"
    return Finding(
        frontend=FRONTEND, rule=rule, path=name, symbol=symbol,
        message=message, line=index,
    )


# ----------------------------------------------------------------------
# 1. Abstract interpretation (shape/dtype lattice)
# ----------------------------------------------------------------------

def _abstract_forward(ops, name, findings):
    """Propagate the lattice through the forward schedule; returns the
    number of ops whose abstract result was imprecise (TOP somewhere)."""
    values = {}
    imprecise = 0

    def value_of(arr):
        entry = values.get(id(arr))
        if entry is None:
            entry = values[id(arr)] = AbstractValue.of(arr)
        return entry

    for op in ops:
        rec = op.record
        if rec.out is None:
            out_buf = rec.aux["array"]
            operands = (
                [value_of(rec.aux["source"].data)]
                if rec.kind == "reduce_max" else []
            )
        else:
            out_buf = rec.out.data
            operands = [value_of(p.data) for p in rec.parents]
        try:
            result = transfer(rec.kind, operands, rec.aux)
        except KeyError:
            findings.append(_finding(
                name, "tape-unknown-op", op.index, rec.kind,
                f"no transfer function for primitive {rec.kind!r}; the "
                "verifier and the kernel table have diverged",
            ))
            values[id(out_buf)] = AbstractValue.of(out_buf)
            continue
        except TransferError as error:
            findings.append(_finding(
                name, "tape-transfer", op.index, rec.kind,
                f"operands are inconsistent with the primitive: {error}",
            ))
            values[id(out_buf)] = AbstractValue.of(out_buf)
            continue
        if result.shape is not TOP and tuple(out_buf.shape) != result.shape:
            findings.append(_finding(
                name, "tape-shape", op.index, rec.kind,
                f"recorded buffer shape {tuple(out_buf.shape)} disagrees "
                f"with the abstract result {result.shape}",
            ))
        if result.dtype is not TOP and out_buf.dtype != result.dtype:
            findings.append(_finding(
                name, "tape-dtype-drift", op.index, rec.kind,
                f"recorded buffer dtype {out_buf.dtype} disagrees with the "
                f"abstract result {result.dtype}",
            ))
        elif (
            np.issubdtype(out_buf.dtype, np.floating)
            and out_buf.dtype != np.float64
        ):
            findings.append(_finding(
                name, "tape-dtype-drift", op.index, rec.kind,
                f"float buffer is {out_buf.dtype}; the engine contract is "
                "float64 end-to-end",
            ))
        if result.imprecise:
            imprecise += 1
        # Continue from the recorded (concrete) value: it agrees with the
        # abstract result wherever that was precise, and restores full
        # precision after a TOP.
        values[id(out_buf)] = AbstractValue.of(out_buf)
    return imprecise


# ----------------------------------------------------------------------
# 2. Aliasing / single-assignment over byte intervals
# ----------------------------------------------------------------------

def _check_aliasing(ops, roots, name, findings):
    """Prove no kernel reads a cell after an in-place overwrite.

    Forward discipline: (a) every written buffer has exactly one writer,
    (b) written buffers occupy pairwise-disjoint byte intervals, also
    disjoint from every root (parameters, staged inputs, constants), and
    (c) every read resolves — through view-alias chains — to a root or
    to a buffer defined earlier in the schedule.  Under (a)+(b), the one
    def of a buffer is the only write its bytes ever see, so (c) means
    every read observes its def.
    """
    defs = {}      # id(arr) -> def op index
    arrays = {}    # id -> array (kept alive by the tape)
    alias = {}     # id(view arr) -> id of the buffer it aliases

    def resolve(arr_id):
        while arr_id in alias:
            arr_id = alias[arr_id]
        return arr_id

    root_ids = {}
    for label, arr in roots:
        arrays[id(arr)] = arr
        root_ids.setdefault(id(arr), label)

    for op in ops:
        rec = op.record
        if not op.emitted and rec.out is not None:
            arrays[id(rec.out.data)] = rec.out.data
            alias[id(rec.out.data)] = resolve(id(rec.parents[0].data))
            continue
        for arr in op.writes:
            arrays[id(arr)] = arr
            if id(arr) in defs:
                findings.append(_finding(
                    name, "tape-alias-overwrite", op.index, op.kind,
                    f"buffer (shape {tuple(arr.shape)}) already written by "
                    f"op {defs[id(arr)]}; a second in-place write would be "
                    "read-after-overwrite for every earlier consumer",
                ))
            elif id(arr) in root_ids:
                findings.append(_finding(
                    name, "tape-alias-overwrite", op.index, op.kind,
                    f"kernel writes a {root_ids[id(arr)]} buffer in place",
                ))
            else:
                defs[id(arr)] = op.index

    # Reads: resolve through alias chains; unclassified stable trace
    # buffers (plain constants) become roots for the interval check.
    for op in ops:
        if not op.emitted:
            continue
        for arr in op.reads:
            arrays.setdefault(id(arr), arr)
            rid = resolve(id(arr))
            if rid in defs:
                if defs[rid] > op.index:
                    findings.append(_finding(
                        name, "tape-alias-overwrite", op.index, op.kind,
                        "kernel reads a buffer whose defining write runs "
                        f"later (op {defs[rid]})",
                    ))
            elif rid not in root_ids:
                root_ids[rid] = "constant"

    intervals = []
    for arr_id, def_index in defs.items():
        arr = arrays[arr_id]
        if arr.size:
            lo, hi = byte_bounds(arr)
            intervals.append((lo, hi, f"op{def_index} output", def_index))
    for arr_id, label in root_ids.items():
        arr = arrays[arr_id]
        if arr.size and arr_id not in defs:
            lo, hi = byte_bounds(arr)
            intervals.append((lo, hi, label, None))
    intervals.sort(key=lambda entry: (entry[0], entry[1]))
    for prev, cur in zip(intervals, intervals[1:]):
        if prev[1] > cur[0]:
            # Two distinct allocations never overlap; an overlap means a
            # kernel output is a view into another live buffer.
            if prev[3] is None and cur[3] is None:
                continue  # two roots may legally alias (views of a table)
            findings.append(_finding(
                name, "tape-alias-overwrite",
                cur[3] if cur[3] is not None else prev[3], "",
                f"byte intervals of {prev[2]} and {cur[2]} overlap; an "
                "in-place write to one overwrites cells of the other",
            ))


# ----------------------------------------------------------------------
# 3. Backward cell dataflow
# ----------------------------------------------------------------------

def _check_backward(tape, name, findings):
    defined = {0}
    shapes = {0: tuple(np.shape(tape._loss_buf))}
    for pos, (rec, ci, targets) in enumerate(tape._backward_plan):
        where = f"bwd{pos}:{rec.kind}"
        if ci not in defined:
            findings.append(Finding(
                frontend=FRONTEND, rule="tape-backward-read-undef",
                path=name, symbol=where, line=pos,
                message=f"backward step reads gradient cell {ci} before "
                "any step defines it",
            ))
        elif shapes.get(ci) is not None and (
            tuple(rec.out.data.shape) != shapes[ci]
        ):
            findings.append(Finding(
                frontend=FRONTEND, rule="tape-backward-shape",
                path=name, symbol=where, line=pos,
                message=f"cell {ci} holds a gradient of shape {shapes[ci]} "
                f"but the op's output is {tuple(rec.out.data.shape)}",
            ))
        if ci >= tape._ncells:
            findings.append(Finding(
                frontend=FRONTEND, rule="tape-backward-read-undef",
                path=name, symbol=where, line=pos,
                message=f"cell index {ci} out of range ({tape._ncells})",
            ))
        for parent, target in zip(rec.parents, targets):
            if target is None:
                continue
            pci, first = target
            pshape = tuple(parent.data.shape)
            if pci >= tape._ncells:
                findings.append(Finding(
                    frontend=FRONTEND, rule="tape-backward-read-undef",
                    path=name, symbol=where, line=pos,
                    message=f"target cell {pci} out of range "
                    f"({tape._ncells})",
                ))
                continue
            if first:
                if pci in defined:
                    findings.append(Finding(
                        frontend=FRONTEND, rule="tape-backward-first-write",
                        path=name, symbol=where, line=pos,
                        message=f"cell {pci} is flagged first-write but an "
                        "earlier step already defined it; the assignment "
                        "would drop an accumulated gradient",
                    ))
                defined.add(pci)
                shapes[pci] = pshape
            else:
                if pci not in defined:
                    findings.append(Finding(
                        frontend=FRONTEND, rule="tape-backward-first-write",
                        path=name, symbol=where, line=pos,
                        message=f"cell {pci} is flagged accumulate but no "
                        "earlier step defined it",
                    ))
                    defined.add(pci)
                    shapes[pci] = pshape
                elif shapes.get(pci) != pshape:
                    findings.append(Finding(
                        frontend=FRONTEND, rule="tape-backward-shape",
                        path=name, symbol=where, line=pos,
                        message=f"accumulating a {pshape} gradient into "
                        f"cell {pci} holding {shapes[pci]}",
                    ))
    for leaf, ci in tape._leaf_cells:
        if ci not in defined:
            findings.append(Finding(
                frontend=FRONTEND, rule="tape-backward-leaf",
                path=name, symbol=f"leaf-cell{ci}",
                message=f"trainable leaf (shape {tuple(leaf.data.shape)}) "
                f"reads cell {ci}, which no backward step defines",
            ))
        elif shapes.get(ci) != tuple(leaf.data.shape):
            findings.append(Finding(
                frontend=FRONTEND, rule="tape-backward-shape",
                path=name, symbol=f"leaf-cell{ci}",
                message=f"leaf of shape {tuple(leaf.data.shape)} reads cell "
                f"{ci} holding a {shapes.get(ci)} gradient",
            ))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def certify(tape, name="tape"):
    """Run every static check over one compiled tape and mint its
    :class:`TapeCertificate`; certified means no findings."""
    findings = []
    certificate = TapeCertificate(
        certified=False,
        findings=findings,
        n_records=len(tape._trace_records),
        n_kernels=len(tape._forward_kinds),
        n_backward=len(tape._backward_plan),
    )
    ops = _extract_ops(tape, name, findings)
    if ops is not None:
        certificate.imprecise = _abstract_forward(ops, name, findings)
        roots = [("parameter", param.data) for param, _ in tape._param_slots]
        roots.extend(
            (f"staging[{field}]", arr) for field, arr in tape._staging
        )
        _check_aliasing(ops, roots, name, findings)
        _check_backward(tape, name, findings)
    certificate.certified = not findings
    if findings:
        certificate.bail_reason = (
            f"{len(findings)} static finding(s): "
            + "; ".join(sorted({f.rule for f in findings}))
        )
    return certificate
