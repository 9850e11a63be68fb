"""Interprocedural determinism/effect auditor for the training runtime.

MAMDR's reproducibility claims (DN/DR replay, resumed == uninterrupted,
seeded fault plans) are only as strong as the runtime's discipline:
results must not depend on wall-clock time, unseeded randomness, hash
iteration order, process scheduling or state smuggled across fork
boundaries.  Today that discipline is checked *dynamically* — run the
cluster twice, compare bits.  This pass checks it *statically*: an AST
effect inference over ``repro/distributed/`` and ``repro/online/`` that
infers, per function, which of five effects it (or anything it calls)
can perform:

``wall-clock``
    reads ``time.time``/``perf_counter``/``monotonic``/``datetime.now``
    — fine for telemetry, fatal if it feeds a result.
``unseeded-rng``
    draws from ``np.random``/stdlib ``random`` module state instead of
    a ``spawn_rng``-derived generator.
``iteration-order``
    iterates (or materializes via ``list``/``tuple``) a ``set`` —
    hash-order-dependent; ``sorted(...)`` is the sanctioned spelling.
``shared-state-mutation``
    mutates module-global state from inside a function — cross-call
    coupling that makes results depend on call scheduling.
``fork-unsafe-capture``
    ships a closure to a forked ``Process`` that captures an
    RNG constructed in the enclosing scope — parent and child silently
    share (copies of) one stream.

Effects propagate through the project call graph (fixpoint over
:meth:`ProjectIndex.resolve_call`), so the audit can answer the real
question: *by what path could the results of* ``SimulatedCluster.run`` /
``IncrementalTrainer.update`` — the two drivers that train over the
transport and on the stream — *depend on scheduling?*  Every effect site is a
:class:`Finding` (reviewed hits live in the committed baseline); any
path from an entry point to a nondeterminism-relevant effect
(``unseeded-rng``, ``iteration-order``, ``fork-unsafe-capture``) is
additionally flagged with its call chain.
"""

from __future__ import annotations

import ast

from .framework import Finding

__all__ = ["EFFECTS", "ENTRY_POINTS", "audit", "audit_paths"]

FRONTEND = "effects"

EFFECTS = (
    "wall-clock",
    "unseeded-rng",
    "iteration-order",
    "shared-state-mutation",
    "fork-unsafe-capture",
)

#: the drivers whose seeded reproducibility the audit exists to protect,
#: and the effects that would break it.
ENTRY_POINTS = (
    ("repro.distributed.cluster", "SimulatedCluster.run"),
    ("repro.online.trainer", "IncrementalTrainer.update"),
)
NONDETERMINISM = frozenset(
    {"unseeded-rng", "iteration-order", "fork-unsafe-capture"}
)

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
})

_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "extend", "insert",
    "remove", "discard", "pop", "popitem", "clear",
})


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_rng_construction(node):
    """A call expression that builds (or is) module-state randomness."""
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func) or ""
    return (
        dotted.startswith("np.random.")
        or dotted.startswith("numpy.random.")
        or dotted in ("random.Random", "random.SystemRandom")
        or dotted.startswith("random.")
    )


class _FunctionScan:
    """Direct (intraprocedural) effects of one function body."""

    def __init__(self, info, module_globals=()):
        self.info = info
        self.module_global_names = module_globals
        self.sites = []          # (effect, lineno, message)
        self.local_names = set()
        self.set_names = set()   # locals assigned from set expressions
        self.rng_names = {}      # locals assigned from RNG constructions
        self.nested = {}         # name -> nested FunctionDef
        self._collect_bindings()
        self._scan()

    def _collect_bindings(self):
        node = self.info.node
        args = node.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.local_names.add(arg.arg)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.local_names.add(leaf.id)
                if len(sub.targets) == 1 and isinstance(
                    sub.targets[0], ast.Name
                ):
                    name = sub.targets[0].id
                    if _is_set_expr(sub.value):
                        self.set_names.add(name)
                    if _is_rng_construction(sub.value):
                        self.rng_names[name] = sub.lineno
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(sub.target, ast.Name):
                    self.local_names.add(sub.target.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for leaf in ast.walk(sub.target):
                    if isinstance(leaf, ast.Name):
                        self.local_names.add(leaf.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not node:
                    self.nested[sub.name] = sub
                    self.local_names.add(sub.name)
            elif isinstance(sub, ast.withitem) and sub.optional_vars:
                for leaf in ast.walk(sub.optional_vars):
                    if isinstance(leaf, ast.Name):
                        self.local_names.add(leaf.id)

    def _site(self, effect, node, message):
        self.sites.append((effect, getattr(node, "lineno", 0), message))

    def _iterates_set(self, expr):
        if _is_set_expr(expr):
            return "a set expression"
        if isinstance(expr, ast.Name) and expr.id in self.set_names:
            return f"the set {expr.id!r}"
        return None

    def _scan(self):
        node = self.info.node
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._scan_call(sub)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                what = self._iterates_set(sub.iter)
                if what:
                    self._site(
                        "iteration-order", sub,
                        f"for-loop iterates {what}; hash order is not a "
                        "stable order — sort first",
                    )
            elif isinstance(sub, ast.comprehension):
                what = self._iterates_set(sub.iter)
                if what:
                    self._site(
                        "iteration-order", sub.iter,
                        f"comprehension iterates {what}; hash order is not "
                        "a stable order — sort first",
                    )
            elif isinstance(sub, ast.Global):
                self._site(
                    "shared-state-mutation", sub,
                    "function rebinds module globals "
                    f"({', '.join(sub.names)}); results couple across "
                    "calls and processes",
                )

    def _scan_call(self, call):
        dotted = _dotted(call.func) or ""
        if dotted in _WALL_CLOCK:
            self._site(
                "wall-clock", call,
                f"reads the wall clock via {dotted}()",
            )
        elif (
            dotted.startswith("np.random.")
            or dotted.startswith("numpy.random.")
        ):
            self._site(
                "unseeded-rng", call,
                f"{dotted}() draws from numpy's global RNG state; derive "
                "a generator via repro.utils.seeding.spawn_rng",
            )
        elif dotted.startswith("random.") and dotted != "random.Random":
            self._site(
                "unseeded-rng", call,
                f"{dotted}() draws from the stdlib random module state; "
                "derive a generator via repro.utils.seeding.spawn_rng",
            )
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in ("list", "tuple")
            and len(call.args) == 1
        ):
            what = self._iterates_set(call.args[0])
            if what:
                self._site(
                    "iteration-order", call,
                    f"{call.func.id}() materializes {what} in hash order; "
                    "use sorted() for a stable order",
                )
        if isinstance(call.func, ast.Attribute):
            base = call.func.value
            if (
                call.func.attr in _MUTATORS
                and isinstance(base, ast.Name)
                and base.id not in self.local_names
                and base.id in self.module_global_names
            ):
                self._site(
                    "shared-state-mutation", call,
                    f"mutates module-global {base.id!r} via "
                    f".{call.func.attr}(); results couple across calls "
                    "and processes",
                )
        if (_dotted(call.func) or "").rpartition(".")[2] == "Process":
            self._scan_fork(call)

    def _scan_fork(self, call):
        target = next(
            (kw.value for kw in call.keywords if kw.arg == "target"), None
        )
        if not isinstance(target, ast.Name):
            return
        nested = self.nested.get(target.id)
        if nested is None:
            return
        bound = set()
        for sub in ast.walk(nested):
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                bound.add(sub.id)
        args = nested.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            bound.add(arg.arg)
        for sub in ast.walk(nested):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id not in bound
                and sub.id in self.rng_names
            ):
                self._site(
                    "fork-unsafe-capture", call,
                    f"fork target {target.id!r} captures RNG {sub.id!r} "
                    f"(constructed at line {self.rng_names[sub.id]}) across "
                    "the fork boundary; pass a spawn_rng-derived seed "
                    "instead",
                )


def audit(index):
    """Run the effect audit over an indexed project.

    Returns ``(findings, stats)``.  ``stats`` summarizes the inferred
    per-entry-point effect sets (with witness chains) for the report.
    """
    findings = list(index.parse_failures)
    scans = {}
    for info in index.iter_functions():
        scans[(info.module, info.qualname)] = _FunctionScan(
            info, index.module_globals.get(info.module, ())
        )

    # Per-site findings.
    for (module, qualname), scan in scans.items():
        entry = scan.info.entry
        for effect, lineno, message in scan.sites:
            findings.append(Finding(
                frontend=FRONTEND, rule=effect, path=entry.posix,
                line=lineno, symbol=qualname, message=message,
            ))

    # Interprocedural propagation: effects[(m, q)] maps effect ->
    # witness, where witness is None (direct) or the callee key the
    # effect arrived through.
    effects = {
        key: {effect: None for effect, _, _ in scan.sites}
        for key, scan in scans.items()
    }
    callees = {}
    for key, scan in scans.items():
        seen = []
        for sub in ast.walk(scan.info.node):
            if isinstance(sub, ast.Call):
                target = index.resolve_call(scan.info, sub.func)
                if target is not None:
                    tkey = (target.module, target.qualname)
                    if tkey != key and tkey not in seen:
                        seen.append(tkey)
        callees[key] = seen

    changed = True
    while changed:
        changed = False
        for key, targets in callees.items():
            own = effects[key]
            for tkey in targets:
                for effect in effects.get(tkey, ()):
                    if effect not in own:
                        own[effect] = tkey
                        changed = True

    def chain(key, effect):
        names = [key[1]]
        seen = {key}
        via = effects[key][effect]
        while via is not None and via not in seen:
            names.append(via[1])
            seen.add(via)
            via = effects.get(via, {}).get(effect)
        return " -> ".join(names)

    stats = {"functions": len(scans), "entry_points": {}}
    for module, qualname in ENTRY_POINTS:
        key = (module, qualname)
        if key not in effects:
            continue
        summary = {
            effect: chain(key, effect)
            for effect in sorted(effects[key])
        }
        stats["entry_points"][f"{module}.{qualname}"] = summary
        info = scans[key].info
        for effect, witness in sorted(summary.items()):
            if effect not in NONDETERMINISM:
                continue
            findings.append(Finding(
                frontend=FRONTEND, rule="entrypoint-nondeterminism",
                path=info.entry.posix, line=info.node.lineno,
                symbol=qualname,
                message=f"results can depend on worker scheduling: "
                f"{effect} reachable via {witness}",
            ))
    return findings, stats


def audit_paths(paths):
    """Index ``paths`` and audit them; returns ``(findings, stats)``."""
    from .project import ProjectIndex

    return audit(ProjectIndex.build(paths))
