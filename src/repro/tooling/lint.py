"""Repo-invariant AST lint pass — Layer 2 of the correctness tooling.

Generic linters cannot know this repo's invariants; these rules encode
them (stdlib ``ast`` only, no third-party dependencies):

``raw-random``
    No ``np.random.*`` / ``numpy.random`` usage outside
    ``repro/utils/seeding.py`` — all randomness flows through
    ``spawn_rng`` so every run is reproducible.
``dtype-drift``
    No float32/float16 ``astype``/``dtype=`` literals inside
    ``repro/nn/`` or ``repro/serving/`` — the engine is float64
    end-to-end; silent downcasts break the finite-difference gradchecks
    and the serving path's bit-identical parity with offline scoring.
``row-iteration``
    No per-row Python iteration over interaction columns
    (``.users``/``.items``/``.labels``/``.times``) inside ``repro/data/``
    outside ``io.py`` — row loops defeat the zero-copy columnar data
    plane at 1e8-row scale.
``data-mutation``
    No assignment or in-place mutation of ``<obj>.data`` outside the
    engine-internal files (``nn/optim.py``, ``nn/state.py``,
    ``nn/tensor.py``, ``nn/module.py``) — ad-hoc parameter mutation
    bypasses the sanitizer's version counters.
``dense-grad-materialization``
    No ``.to_dense()`` / ``.add_to_dense()`` / ``np.add.at`` outside the
    sanctioned sparse-path files — densifying an embedding-table gradient
    turns an O(batch) step into O(table).
``gradcheck-coverage``
    Every primitive registered in ``repro/nn/functional.py`` (a top-level
    function that calls ``Tensor._make``) must be referenced in
    ``tests/nn/test_gradcheck.py``.
``eager-inner-loop``
    No hand-rolled eager training step (``model.loss`` → ``backward`` →
    ``optimizer.step``) in the driver layers (``repro/core/``,
    ``repro/distributed/``) — steps must route through the compiled
    executor (:func:`repro.nn.compile.active_executor`, or
    :func:`repro.nn.compile.eager_step` where a step is eager by design)
    so tracing and replay verification see every step.
``stale-waiver``
    Every ``# lint: allow[rule]`` comment must still suppress at least
    one violation; waivers that outlive the code they excused are
    reported with the exact line to delete (project runs only — single
    snippets via :func:`lint_source` are not checked).

A violation may be waived where the code is a sanctioned exception by
putting ``# lint: allow[rule-name]`` on the flagged line or the line
directly above it.

The pass runs on the shared :class:`repro.tooling.analyzer.ProjectIndex`
(one parse per file, reused by every rule and by the other analyzer
front ends); rules are plugins registered with :func:`register`.  Exit
codes follow the analyzer contract: ``0`` clean, ``1`` findings, ``2``
usage/IO error.

Run::

    PYTHONPATH=src python -m repro.tooling.lint src/
    PYTHONPATH=src python -m repro.tooling.lint --list-rules
    PYTHONPATH=src python -m repro.tooling.lint src/ --json report.json
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path

from .analyzer.framework import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Baseline,
    Finding,
    Report,
    UsageError,
)
from .analyzer.project import ProjectIndex, _posix

__all__ = [
    "Violation",
    "Rule",
    "register",
    "all_rules",
    "lint_source",
    "lint_paths",
    "main",
]

FRONTEND = "lint"

#: the exact comment syntax ``_waived`` honours; anything else (wrong
#: spacing, typo'd rule) never suppresses and is caught as stale.
_WAIVER_RE = re.compile(r"lint: allow\[([^\]\s]+)\]")


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self):
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_finding(self):
        return Finding(
            frontend=FRONTEND, rule=self.rule, path=self.path,
            message=self.message, line=self.line, col=self.col,
        )


def _dotted(node):
    """Flatten an ``ast.Attribute``/``ast.Name`` chain to ``a.b.c`` or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base lint rule: per-file ``visit`` plus cross-file ``finalize``."""

    name = ""
    description = ""
    #: posix path suffixes where the rule is sanctioned (does not apply).
    allowed_suffixes = ()
    #: when non-empty, the rule only applies to paths containing one of
    #: these substrings (empty = applies everywhere).
    scopes = ()

    def applies_to(self, posix_path):
        if any(posix_path.endswith(suffix) for suffix in self.allowed_suffixes):
            return False
        if self.scopes and not any(s in posix_path for s in self.scopes):
            return False
        return True

    def visit(self, path, tree):
        """Return violations for one parsed file."""
        return []

    def finalize(self, files):
        """Return violations needing the whole file set ({path: tree})."""
        return []

    def _violation(self, path, node, message):
        return Violation(
            path=_posix(path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
        )


#: plugin registry: rule classes in registration order.
RULE_REGISTRY = []


def register(rule_class):
    """Class decorator adding a rule to the default rule set."""
    RULE_REGISTRY.append(rule_class)
    return rule_class


@register
class RawRandomRule(Rule):
    name = "raw-random"
    description = (
        "np.random / numpy.random and the stdlib random module must only be "
        "used in repro/utils/seeding.py; derive generators via "
        "repro.utils.seeding.spawn_rng (fault injection included — a chaos "
        "run must replay from its plan seed alone)"
    )
    allowed_suffixes = ("repro/utils/seeding.py",)

    def visit(self, path, tree):
        violations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted in ("np.random", "numpy.random"):
                    violations.append(self._violation(
                        path, node,
                        "raw numpy RNG access; route randomness through "
                        "repro.utils.seeding.spawn_rng",
                    ))
                elif dotted is not None and (
                    dotted == "random" or dotted.startswith("random.")
                ):
                    violations.append(self._violation(
                        path, node,
                        "stdlib random access; route randomness through "
                        "repro.utils.seeding.spawn_rng",
                    ))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        violations.append(self._violation(
                            path, node,
                            "import of the stdlib random module; route "
                            "randomness through repro.utils.seeding.spawn_rng",
                        ))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "numpy.random" or module.startswith("numpy.random."):
                    violations.append(self._violation(
                        path, node,
                        f"import from {module!r}; route randomness through "
                        "repro.utils.seeding.spawn_rng",
                    ))
                elif module == "random" or module.startswith("random."):
                    violations.append(self._violation(
                        path, node,
                        "import from the stdlib random module; route "
                        "randomness through repro.utils.seeding.spawn_rng",
                    ))
        return violations


@register
class DtypeDriftRule(Rule):
    name = "dtype-drift"
    description = (
        "no float32/float16 astype()/dtype= literals in repro/nn, "
        "repro/serving, repro/online, repro/traffic or the columnar data "
        "plane — the engine is float64 end-to-end, and the bit-identical "
        "parity guarantees of the serving path, the continual pipeline "
        "and the multi-process predictor pool all die on any downcast; "
        "the columnar storage dtypes are declared once as np.dtype(...) "
        "constants in repro/data/columnar.py, everything else references "
        "those"
    )
    scopes = ("repro/nn/", "repro/serving/", "repro/online/",
              "repro/traffic/", "repro/data/columnar")

    _BAD_DOTTED = frozenset({
        "np.float32", "np.float16", "np.single", "np.half",
        "numpy.float32", "numpy.float16", "numpy.single", "numpy.half",
    })
    _BAD_STRINGS = frozenset({"float32", "float16", "f4", "f2", "<f4", "<f2"})

    def _is_bad_dtype(self, node):
        dotted = _dotted(node)
        if dotted in self._BAD_DOTTED:
            return True
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in self._BAD_STRINGS
        )

    def visit(self, path, tree):
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            candidates = [
                keyword.value for keyword in node.keywords
                if keyword.arg == "dtype"
            ]
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
            ):
                candidates.append(node.args[0])
            for candidate in candidates:
                if self._is_bad_dtype(candidate):
                    violations.append(self._violation(
                        path, node,
                        "reduced-precision dtype literal in repro/nn; the "
                        "autodiff engine and its gradchecks are float64",
                    ))
        return violations


@register
class RowIterationRule(Rule):
    name = "row-iteration"
    description = (
        "no per-row Python iteration over interaction columns "
        "(.users/.items/.labels/.times) in repro/data outside io.py — a "
        "Python loop over a 1e8-row columnar view is a 1000x slowdown "
        "and defeats the zero-copy data plane; use vectorized numpy ops "
        "or packed-key membership (io.py's CSV row writer is the one "
        "sanctioned row loop)"
    )
    scopes = ("repro/data/",)
    allowed_suffixes = ("repro/data/io.py",)
    _COLUMNS = frozenset({"users", "items", "labels", "times"})
    #: iteration wrappers whose arguments are still row-wise traversals.
    _WRAPPERS = frozenset({"zip", "enumerate", "reversed", "iter"})

    def _is_column(self, node):
        return isinstance(node, ast.Attribute) and node.attr in self._COLUMNS

    def _iterates_columns(self, node):
        if self._is_column(node):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._WRAPPERS
        ):
            return any(self._iterates_columns(arg) for arg in node.args)
        return False

    def visit(self, path, tree):
        violations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [generator.iter for generator in node.generators]
            else:
                continue
            for iterable in iters:
                if self._iterates_columns(iterable):
                    violations.append(self._violation(
                        path, node,
                        "per-row Python iteration over an interaction "
                        "column; vectorize (numpy reductions, searchsorted "
                        "membership, slice views) — row loops are only "
                        "sanctioned in repro/data/io.py",
                    ))
        return violations


@register
class DataMutationRule(Rule):
    name = "data-mutation"
    description = (
        "Tensor.data may only be assigned/mutated in the engine files "
        "(nn/optim.py, nn/state.py, nn/tensor.py, nn/module.py)"
    )
    allowed_suffixes = (
        "repro/nn/optim.py",
        "repro/nn/state.py",
        "repro/nn/tensor.py",
        "repro/nn/module.py",
    )

    @staticmethod
    def _targets_data(target):
        if isinstance(target, ast.Attribute) and target.attr == "data":
            return True
        if isinstance(target, ast.Subscript):
            return DataMutationRule._targets_data(target.value)
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(DataMutationRule._targets_data(t) for t in target.elts)
        return False

    def visit(self, path, tree):
        violations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(self._targets_data(target) for target in targets):
                violations.append(self._violation(
                    path, node,
                    "direct .data mutation outside the engine bypasses the "
                    "sanitizer's version counters; go through an optimizer, "
                    "load_state_dict, or the state ops",
                ))
        return violations


@register
class DenseMaterializationRule(Rule):
    name = "dense-grad-materialization"
    description = (
        "SparseGrad densification (.to_dense/.add_to_dense/np.add.at) is "
        "only sanctioned inside the sparse-path engine files"
    )
    allowed_suffixes = (
        "repro/nn/sparse.py",
        "repro/nn/tensor.py",
        "repro/nn/optim.py",
        "repro/nn/functional.py",
    )

    def visit(self, path, tree):
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in ("to_dense", "add_to_dense"):
                violations.append(self._violation(
                    path, node,
                    f".{func.attr}() materializes a full dense gradient "
                    "(O(table), not O(batch)); keep embedding grads sparse "
                    "or waive a sanctioned interop site explicitly",
                ))
            elif _dotted(func) in ("np.add.at", "numpy.add.at"):
                violations.append(self._violation(
                    path, node,
                    "np.add.at dense scatter outside the sanctioned sparse "
                    "fallback paths",
                ))
        return violations


@register
class EagerInnerLoopRule(Rule):
    name = "eager-inner-loop"
    description = (
        "hand-rolled eager training steps (model.loss → backward → "
        "optimizer.step) in repro/core, repro/distributed or repro/traffic "
        "must route through the compiled executor (repro.nn.compile) or "
        "carry an explicit waiver on the sanctioned eager fallback"
    )
    scopes = ("repro/core/", "repro/distributed/", "repro/traffic/")

    @staticmethod
    def _attr_calls(func_def, attr):
        return [
            node for node in ast.walk(func_def)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
        ]

    def visit(self, path, tree):
        violations = []
        for func_def in ast.walk(tree):
            if not isinstance(func_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._attr_calls(func_def, "backward"):
                continue
            if not self._attr_calls(func_def, "step"):
                continue
            for loss_call in self._attr_calls(func_def, "loss"):
                violations.append(self._violation(
                    path, loss_call,
                    "eager inner training loop (loss → backward → "
                    "optimizer.step) bypasses the compiled executor; route "
                    "the step through repro.nn.compile (executor.step) or "
                    "waive the sanctioned eager fallback",
                ))
        return violations


@register
class GradcheckCoverageRule(Rule):
    name = "gradcheck-coverage"
    description = (
        "every primitive in repro/nn/functional.py (calls Tensor._make) "
        "must be referenced in tests/nn/test_gradcheck.py"
    )

    def __init__(self, gradcheck_tests=None):
        self.gradcheck_tests = gradcheck_tests

    @staticmethod
    def _calls_make(func_def):
        for node in ast.walk(func_def):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_make"
            ):
                return True
        return False

    @staticmethod
    def _locate_tests(functional_path):
        for ancestor in Path(functional_path).resolve().parents:
            candidate = ancestor / "tests" / "nn" / "test_gradcheck.py"
            if candidate.is_file():
                return candidate
        return None

    def finalize(self, files):
        functional = next(
            (
                (path, tree) for path, tree in files.items()
                if _posix(path).endswith("repro/nn/functional.py")
            ),
            None,
        )
        if functional is None:
            return []
        path, tree = functional
        primitives = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and self._calls_make(node)
        ]
        if not primitives:
            return []
        tests_path = self.gradcheck_tests or self._locate_tests(path)
        if tests_path is None:
            return [self._violation(
                path, tree,
                "cannot locate tests/nn/test_gradcheck.py to verify "
                "primitive coverage (pass --gradcheck-tests)",
            )]
        try:
            tests_tree = ast.parse(
                Path(tests_path).read_text(), filename=str(tests_path)
            )
        except (OSError, SyntaxError) as error:
            return [self._violation(
                path, tree, f"cannot parse gradcheck tests: {error}"
            )]
        referenced = set()
        for node in ast.walk(tests_tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        return [
            self._violation(
                path, primitive,
                f"primitive '{primitive.name}' registers a backward via "
                f"Tensor._make but is never referenced in {tests_path}; "
                "add a finite-difference gradcheck",
            )
            for primitive in primitives
            if primitive.name not in referenced
        ]


def all_rules(gradcheck_tests=None):
    """Instantiate the full registered rule set."""
    rules = []
    for rule_class in RULE_REGISTRY:
        if rule_class is GradcheckCoverageRule:
            rules.append(rule_class(gradcheck_tests=gradcheck_tests))
        else:
            rules.append(rule_class())
    return rules


#: rule names that are not Rule plugins but can appear in reports and be
#: selected/ignored: the index's parse failures and the waiver auditor.
BUILTIN_RULES = {
    "parse-error": "file does not parse; nothing else can be checked",
    "stale-waiver": (
        "a '# lint: allow[rule]' comment that suppresses no violation; "
        "delete the comment (or fix the rule name/spacing if it was "
        "meant to suppress one)"
    ),
}


def known_rule_names(gradcheck_tests=None):
    return {rule.name for rule in all_rules(gradcheck_tests)} | set(BUILTIN_RULES)


def _waived(violation, lines):
    tag = f"lint: allow[{violation.rule}]"
    for lineno in (violation.line, violation.line - 1):
        if 1 <= lineno <= len(lines) and tag in lines[lineno - 1]:
            return True
    return False


def _waiver_declarations(entry):
    """All ``(line, rule)`` waiver comments in one file.

    Tokenized, not grepped: only real ``#`` comments declare waivers, so
    docstrings *describing* the syntax (like this module's) don't count.
    """
    found = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(entry.source).readline)
        comments = [
            (token.start[0], token.string) for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError):  # pragma: no cover - parsed ok
        return found
    for lineno, text in comments:
        for match in _WAIVER_RE.finditer(text):
            if "{" not in match.group(1):
                found.append((lineno, match.group(1)))
    return found


def _filter_waived(violations, index, used):
    """Drop waived violations, recording which waiver lines fired."""
    kept = []
    for violation in violations:
        entry = index.entries.get(violation.path)
        lines = entry.lines if entry is not None else ()
        tag = f"lint: allow[{violation.rule}]"
        waiving_line = None
        for lineno in (violation.line, violation.line - 1):
            if 1 <= lineno <= len(lines) and tag in lines[lineno - 1]:
                waiving_line = lineno
                break
        if waiving_line is None:
            kept.append(violation)
        else:
            used.add((violation.path, waiving_line, violation.rule))
    return kept


def _stale_waivers(index, used, active_rules, select):
    """Waiver comments that suppressed nothing in this run.

    Only waivers for rules that actually ran are judged — under
    ``--select`` a waiver for an unselected rule had no chance to fire.
    Waivers naming a rule that does not exist at all are always stale on a
    full run (they can never suppress anything).
    """
    stale = []
    for entry in index.entries.values():
        for lineno, rule in _waiver_declarations(entry):
            if select is not None and rule not in select:
                continue
            if select is None and rule not in active_rules \
                    and rule in known_rule_names():
                continue
            if (entry.posix, lineno, rule) in used:
                continue
            stale.append(Violation(
                path=entry.posix, line=lineno, col=0, rule="stale-waiver",
                message=(
                    f"waiver 'lint: allow[{rule}]' suppresses nothing; "
                    f"delete the comment on line {lineno}"
                ),
            ))
    return stale


def lint_source(source, path="fixture.py", rules=None):
    """Lint a source string (unit-test entry point; per-file rules only).

    Stale-waiver auditing is deliberately skipped here: a snippet has no
    project context, so an unused waiver in a fixture is not an error.
    """
    rules = rules if rules is not None else all_rules()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    posix = _posix(path)
    violations = []
    for rule in rules:
        if rule.applies_to(posix):
            violations.extend(rule.visit(path, tree))
    return [v for v in violations if not _waived(v, lines)]


def _rules_for(select, ignore, gradcheck_tests):
    rules = all_rules(gradcheck_tests=gradcheck_tests)
    if select:
        rules = [rule for rule in rules if rule.name in select]
    if ignore:
        rules = [rule for rule in rules if rule.name not in ignore]
    return rules


def lint_paths(paths, select=None, ignore=None, gradcheck_tests=None,
               index=None):
    """Lint files/directories; returns (violations, files_checked).

    Builds (or reuses, via ``index``) a shared :class:`ProjectIndex` —
    one parse per file for every rule — then runs per-file rules, the
    cross-file ``finalize`` passes, waiver filtering, and the
    stale-waiver audit over the waivers the run could have used.
    """
    rules = _rules_for(select, ignore, gradcheck_tests)
    if index is None:
        index = ProjectIndex.build(paths)
    violations = [
        Violation(path=f.path, line=f.line or 1, col=f.col, rule=f.rule,
                  message=f.message)
        for f in index.parse_failures
    ]
    # Rules receive the real filesystem path (``finalize`` passes resolve
    # sibling files from it); the violations they emit carry the
    # ``_posix``-normalized path, matching the index keys.
    for entry in index.files():
        for rule in rules:
            if rule.applies_to(entry.posix):
                violations.extend(rule.visit(entry.path, entry.tree))
    files = {entry.path: entry.tree for entry in index.files()}
    for rule in rules:
        violations.extend(rule.finalize(files))

    used = set()
    violations = _filter_waived(violations, index, used)
    stale_active = "stale-waiver" not in (ignore or ()) and (
        select is None or "stale-waiver" in select
    )
    if stale_active:
        active_rules = {rule.name for rule in rules}
        stale = _stale_waivers(index, used, active_rules, select)
        violations.extend(_filter_waived(stale, index, set()))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations, len(index.entries)


def _parse_rule_set(raw, gradcheck_tests=None):
    if not raw:
        return None
    names = {name.strip() for name in raw.split(",") if name.strip()}
    unknown = names - known_rule_names(gradcheck_tests)
    if unknown:
        raise UsageError(
            f"unknown rule name(s): {', '.join(sorted(unknown))} "
            "(see --list-rules)"
        )
    return names


def _check_paths(paths):
    for raw in paths:
        if not Path(raw).exists():
            raise UsageError(f"no such file or directory: {raw}")


def _build_report(violations, files_checked, rules):
    report = Report()
    report.extend([v.to_finding() for v in violations])
    report.note(
        FRONTEND,
        files_checked=files_checked,
        rules=sorted(rule.name for rule in rules),
        violations=len(violations),
    )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tooling.lint",
        description="Repo-invariant AST lint pass for the MAMDR reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--gradcheck-tests", default=None,
        help="explicit path to tests/nn/test_gradcheck.py",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write a machine-readable JSON report",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed findings baseline; fail only on new findings",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {rule.description}")
        for name, description in sorted(BUILTIN_RULES.items()):
            print(f"{name}: {description}")
        return EXIT_CLEAN

    try:
        _check_paths(args.paths)
        select = _parse_rule_set(args.select, args.gradcheck_tests)
        ignore = _parse_rule_set(args.ignore, args.gradcheck_tests)
        baseline = Baseline.load(args.baseline) if args.baseline else None
        violations, files_checked = lint_paths(
            args.paths, select=select, ignore=ignore,
            gradcheck_tests=args.gradcheck_tests,
        )
    except UsageError as error:
        print(f"repro.tooling.lint: error: {error}", file=sys.stderr)
        return EXIT_USAGE

    rules = _rules_for(select, ignore, args.gradcheck_tests)
    report = _build_report(violations, files_checked, rules)
    if args.write_baseline:
        Baseline.from_findings(report.findings).save(args.write_baseline)
        print(
            f"repro.tooling.lint: wrote baseline with "
            f"{len(report.findings)} finding(s) to {args.write_baseline}"
        )
        return EXIT_CLEAN
    new, known = report.finalize(baseline)
    if args.json:
        report.write_json(args.json, baseline)

    for violation in violations:
        print(violation.render())
    stale = [v for v in violations if v.rule == "stale-waiver"]
    if stale:
        print("\nstale waivers — delete these comments:")
        for violation in stale:
            print(f"  {violation.path}:{violation.line}")
    status = "FAILED" if new else "ok"
    suffix = f" ({len(known)} baselined)" if known else ""
    print(
        f"repro.tooling.lint: {files_checked} files checked, "
        f"{len(violations)} violation(s){suffix} — {status}"
    )
    return EXIT_FINDINGS if new else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
