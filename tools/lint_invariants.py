"""Repo-invariant AST lint: the rules ruff has no vocabulary for.

Four invariants keep the engine's observability honest and its core
encapsulated; each is enforced over ``src/`` by CI's static-analysis job::

    python tools/lint_invariants.py src

* **RL001** — ``perf_counter`` is referenced only inside ``repro/obs``
  (and the benchmark harness, which is not under ``src``).  Everything
  else times through the ``repro.obs.telemetry.now`` alias, so there is a
  single seam for faking time.
* **RL002** — no span open (``maybe_span(...)`` or ``*.span(...)``)
  lexically inside a ``for``/``while`` loop: spans are for coarse scopes;
  per-row spans melt the hot path (see ``docs/observability.md``).
* **RL003** — every ``tel.count/record/event/span`` call on a name bound
  from ``ACTIVE`` sits behind the one-load guard: either an enclosing
  ``if tel is not None:`` (or ``if tel:``) or an earlier terminal
  ``if tel is None: return`` in the same function.
* **RL004** — ``Instance`` internals (``_facts``, ``_by_relation``, ...)
  are dereferenced only on ``self``/``cls`` or inside ``repro/core``:
  the columnar layout is ``core``'s private business.

A finding can be waived on its own line with ``# lint: allow(RL00x)``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: Path fragments (POSIX) inside which RL001 does not apply.
CLOCK_ALLOWED = ("repro/obs/",)
#: Path fragments inside which RL004 does not apply.
CORE_ALLOWED = ("repro/core/",)
#: Instance-internal attributes (mirrors ``core/instance.py``).
PRIVATE_INSTANCE_ATTRS = frozenset(
    {
        "_facts",
        "_by_relation",
        "_by_position",
        "_by_constant",
        "_columns",
        "_interner",
        "_adom",
        "_domain",
        "_declared_schema",
    }
)
#: Telemetry recorder methods that must sit behind the one-load guard.
GUARDED_METHODS = frozenset({"count", "record", "event", "span"})


@dataclass(frozen=True)
class Violation:
    path: Path
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _allowed(source_lines: list[str], line: int, code: str) -> bool:
    if 1 <= line <= len(source_lines):
        return f"lint: allow({code})" in source_lines[line - 1]
    return False


def _in(path: Path, fragments: tuple[str, ...]) -> bool:
    posix = path.as_posix()
    return any(fragment in posix for fragment in fragments)


class _Annotator(ast.NodeVisitor):
    """Stamp every node with its parent and enclosing function."""

    def __init__(self) -> None:
        self.function: ast.AST | None = None

    def visit(self, node: ast.AST) -> None:
        is_function = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        outer = self.function
        if is_function:
            self.function = node
        for child in ast.iter_child_nodes(node):
            child._parent = node  # type: ignore[attr-defined]
            child._function = self.function  # type: ignore[attr-defined]
            self.visit(child)
        self.function = outer


def _ancestors(node: ast.AST):
    current = getattr(node, "_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_parent", None)


def _is_span_open(call: ast.Call) -> bool:
    function = call.func
    if isinstance(function, ast.Name):
        return function.id == "maybe_span"
    if isinstance(function, ast.Attribute):
        return function.attr in ("span", "maybe_span")
    return False


def _test_guards(test: ast.AST, name: str, positive: bool) -> bool:
    """Does ``test`` establish ``name is not None`` (``positive``) or
    ``name is None`` (``not positive``)?"""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, (comparator,) = test.left, tuple(test.comparators)
        operands = (left, comparator)
        has_name = any(
            isinstance(op, ast.Name) and op.id == name for op in operands
        )
        has_none = any(
            isinstance(op, ast.Constant) and op.value is None for op in operands
        )
        if has_name and has_none:
            wants = ast.IsNot if positive else ast.Is
            return isinstance(test.ops[0], wants)
        return False
    if positive and isinstance(test, ast.Name):
        return test.id == name  # ``if tel:`` — truthy recorder
    if positive and isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_test_guards(value, name, True) for value in test.values)
    return False


def _terminal(statements: list[ast.stmt]) -> bool:
    return bool(statements) and isinstance(
        statements[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _guarded(call: ast.Call, name: str) -> bool:
    # (a) an enclosing ``if/while name is not None`` (or ``if name:``),
    # including conditional expressions.
    for ancestor in _ancestors(call):
        if isinstance(ancestor, (ast.If, ast.While, ast.IfExp)) and _test_guards(
            ancestor.test, name, True
        ):
            return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    # (b) an earlier terminal ``if name is None: return/raise/...`` in the
    # same function (the early-exit idiom of the SAT core).
    function = getattr(call, "_function", None)
    if function is None:
        return False
    return any(
        isinstance(node, ast.If)
        and _test_guards(node.test, name, False)
        and _terminal(node.body)
        and node.lineno < call.lineno
        and getattr(node, "_function", None) is function
        for node in ast.walk(function)
    )


def _active_names(function: ast.AST) -> set[str]:
    """Names bound from ``*.ACTIVE`` anywhere in the function."""
    names: set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "ACTIVE"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def lint_file(path: Path) -> list[Violation]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [Violation(path, error.lineno or 0, "RL000", f"syntax error: {error}")]
    _Annotator().visit(tree)
    lines = source.splitlines()
    found: list[Violation] = []

    def report(node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if not _allowed(lines, line, code):
            found.append(Violation(path, line, code, message))

    active_cache: dict[int, set[str]] = {}
    for node in ast.walk(tree):
        # RL001 — perf_counter confined to repro/obs.
        references_clock = (
            isinstance(node, ast.Attribute) and node.attr == "perf_counter"
        ) or (isinstance(node, ast.Name) and node.id == "perf_counter")
        if references_clock and not _in(path, CLOCK_ALLOWED):
            report(
                node,
                "RL001",
                "perf_counter outside repro/obs; time through "
                "repro.obs.telemetry.now instead",
            )
        if not isinstance(node, ast.Call):
            continue
        # RL002 — no span opens inside loops.
        if _is_span_open(node):
            function = getattr(node, "_function", None)
            for ancestor in _ancestors(node):
                if ancestor is function:
                    break
                if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
                    report(
                        node,
                        "RL002",
                        "span opened inside a loop; spans are for coarse "
                        "scopes — hoist it or use a counter/histogram",
                    )
                    break
        # RL003 — recorder calls behind the one-load guard.
        function = getattr(node, "_function", None)
        if (
            function is not None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in GUARDED_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            names = active_cache.setdefault(id(function), _active_names(function))
            name = node.func.value.id
            if name in names and not _guarded(node, name):
                report(
                    node,
                    "RL003",
                    f"telemetry call {name}.{node.func.attr}(...) not behind "
                    f"an `if {name} is not None` guard",
                )
    # RL004 — Instance internals stay inside core (or self/cls).
    if not _in(path, CORE_ALLOWED):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in PRIVATE_INSTANCE_ATTRS
            ):
                value = node.value
                if isinstance(value, ast.Name) and value.id in ("self", "cls"):
                    continue
                report(
                    node,
                    "RL004",
                    f"access to Instance internal {node.attr!r} outside "
                    "repro/core; use the public Instance API",
                )
    return found


def lint_paths(paths: list[Path]) -> list[Violation]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    found: list[Violation] = []
    for file in files:
        found.extend(lint_file(file))
    return found


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if not arguments:
        arguments = ["src"]
    violations = lint_paths([Path(a) for a in arguments])
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
