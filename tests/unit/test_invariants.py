"""Invariants of the ``src/`` tree, checked from the AST.

The differential suites catch a broken invariant only when a run
happens to expose it.  These six rules check its preconditions on
every file under ``src/``:

==========================  ===========================================
``determinism-random``      randomness only via :mod:`repro.utils.rng`
``determinism-wallclock``   no wall clock on engine/scenario paths
``config-hygiene``          no import-time ``os.environ`` reads
``generator-purity``        scenario generators are pure functions
``export-integrity``        ``__all__`` is literal, truthful, complete
``fault-hygiene``           no silently swallowed engine failures
==========================  ===========================================

Each rule is a plain function from a parsed :class:`Module` to a list
of ``(line, message)`` findings.  ``test_src_obeys`` runs every rule
over every file under ``src/``, one parametrized case per file; the
fixture tests pair each rule with modules it must flag and modules it
must pass, so a rule that stops biting fails here.

The typed core (``repro.api``, ``repro.engine.config``,
``repro.scenarios.spec``) is held to ``mypy --strict`` in CI::

    MYPYPATH=src mypy --strict --follow-imports=silent \\
        src/repro/api.py src/repro/engine/config.py src/repro/scenarios/spec.py

The annotation check at the end of this module enforces the part of
strict mode that regresses most often, a missing annotation, where
mypy is not installed.
"""

from __future__ import annotations

import ast
import textwrap
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_FILES = sorted((REPO_ROOT / "src").rglob("*.py"))

TYPED_CORE = (
    "src/repro/api.py",
    "src/repro/engine/config.py",
    "src/repro/scenarios/spec.py",
)

Finding = tuple[int, str]


class Module(NamedTuple):
    """One parsed source file, as every rule sees it."""

    tree: ast.Module
    name: str         # dotted module name, e.g. ``repro.engine.parallel``
    is_package: bool  # an ``__init__.py``


def parse(source: str, relpath: str) -> Module:
    """Parse ``source`` as if it lived at ``relpath`` (``src/...``).

    The rule scopes key off the dotted name derived from the path, so
    fixtures exercise path-scoped rules on synthetic snippets.
    """
    parts = Path(relpath).with_suffix("").parts
    if parts[:1] == ("src",):
        parts = parts[1:]
    is_package = parts[-1:] == ("__init__",)
    if is_package:
        parts = parts[:-1]
    return Module(ast.parse(source, filename=relpath), ".".join(parts),
                  is_package)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _is_type_checking_test(test: ast.expr) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _runtime_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` minus the bodies of ``if TYPE_CHECKING:`` blocks.

    Typing-only imports never execute, so they cannot break runtime
    determinism.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, ast.If) and _is_type_checking_test(
                current.test):
            stack.extend(current.orelse)
            continue
        stack.extend(ast.iter_child_nodes(current))


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Names the module binds to the numpy module (``numpy``, ``np``...)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy" or item.name.startswith("numpy."):
                    aliases.add((item.asname or item.name).split(".")[0])
    return aliases


def _in_scope(module: Module, scopes: tuple[str, ...]) -> bool:
    """Library modules under ``scopes``; ``__main__`` CLI entries are not."""
    if module.name.rpartition(".")[2] == "__main__":
        return False
    return any(module.name == scope or module.name.startswith(scope + ".")
               for scope in scopes)


def _target_names(target: ast.expr) -> set[str]:
    return {node.id for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _subscript_base(target: ast.expr) -> str | None:
    """The root Name of a ``X[...]`` / ``X.attr`` store target, if any."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module level at runtime (imports, defs, assignments).

    Walks conditional bodies too (an ``if``-guarded def still binds),
    but not ``if TYPE_CHECKING:`` blocks: those names do not exist at
    runtime.
    """
    names: set[str] = set()

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Import):
                for item in node.names:
                    names.add((item.asname or item.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for item in node.names:
                    names.add(item.asname or item.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    names.update(_target_names(target))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                names.update(_target_names(node.target))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                names.update(_target_names(node.target))
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.While):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.If):
                if not _is_type_checking_test(node.test):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    if handler.name:
                        names.add(handler.name)
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        names.update(_target_names(item.optional_vars))
                visit(node.body)

    visit(tree.body)
    return names


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
def determinism_random(module: Module) -> list[Finding]:
    """All randomness flows through ``repro.utils.rng``.

    The oracles replay every scenario across engine paths and demand
    bit-identical observations.  That holds only because every draw is
    a counter-based ``StreamRNG`` value, a pure function of (seed,
    stream, slot, draw), or a ``random.Random`` seeded through
    ``make_rng``/``spawn_rng``.  A stray ``import random`` or
    ``np.random`` call brings back hidden sequential state: results
    start to depend on call order, chunking and which worker ran first.
    ``import random`` under ``if TYPE_CHECKING:`` never executes and is
    allowed.  Only ``repro/utils/rng.py`` may touch the modules.
    """
    if module.name == "repro.utils.rng":
        return []
    numpy_names = _numpy_aliases(module.tree)
    stdlib_hint = ("outside repro.utils.rng; draw through StreamRNG / "
                   "make_rng instead")
    numpy_hint = ("outside repro.utils.rng; seed through "
                  "repro.utils.rng.make_np_rng instead")
    findings: list[Finding] = []
    for node in _runtime_walk(module.tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.split(".")[0] == "random":
                    findings.append((node.lineno, "import of the 'random' "
                                     f"module {stdlib_hint}"))
                elif item.name.startswith("numpy.random"):
                    findings.append((node.lineno, "import of numpy.random "
                                     f"{numpy_hint}"))
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if name == "random" or name.startswith("random."):
                findings.append((node.lineno, "from-import of the 'random' "
                                 f"module {stdlib_hint}"))
            elif name.startswith("numpy.random") or (
                    name == "numpy"
                    and any(item.name == "random" for item in node.names)):
                findings.append((node.lineno, "from-import of numpy.random "
                                 f"{numpy_hint}"))
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in numpy_names):
            findings.append((node.lineno, f"use of {node.value.id}.random "
                             f"{numpy_hint}"))
    return findings


_CLOCK_NAMES = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
_DATETIME_NAMES = frozenset({"now", "utcnow", "today"})


def determinism_wallclock(module: Module) -> list[Finding]:
    """No wall-clock reads inside ``repro.engine`` / ``repro.scenarios``.

    The scenario oracle asserts bit-identical observations across
    engine paths; a timestamp smuggled into a result, or into control
    flow ("stop scanning after N ms"), silently breaks replay.
    Benchmarks, experiment runners and the ``__main__`` CLI entries
    live outside the scope and may time freely.
    """
    if not _in_scope(module, ("repro.engine", "repro.scenarios")):
        return []
    findings: list[Finding] = []
    for node in _runtime_walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for item in node.names:
                if item.name in _CLOCK_NAMES:
                    findings.append((node.lineno, "wall-clock import 'from "
                                     f"time import {item.name}' on an "
                                     "observation path"))
        elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name):
            base = node.value.id
            if (base == "time" and node.attr in _CLOCK_NAMES) or (
                    base in ("datetime", "date")
                    and node.attr in _DATETIME_NAMES):
                findings.append((node.lineno, f"wall-clock read "
                                 f"{base}.{node.attr} on an observation "
                                 f"path; results must be replayable"))
    return findings


def config_hygiene(module: Module) -> list[Finding]:
    """Environment variables resolve lazily, at call time.

    ``repro.engine.parallel`` once read ``REPRO_ENGINE_WORKERS`` at
    import, so setting the variable after ``import repro`` did nothing.
    The resolution order (session config > ``use_config`` > env >
    builtin) holds only when the read happens inside the resolving
    function.  Flagged: any ``os.environ`` / ``os.getenv`` reference
    evaluated at import time — module top level, class bodies,
    decorators, and default parameter values, which evaluate once at
    def time.
    """
    env_names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            env_names.update(item.asname or item.name for item in node.names
                             if item.name in ("environ", "getenv"))

    def env_read(node: ast.AST) -> str | None:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv")):
            return f"os.{node.attr}"
        if (isinstance(node, ast.Name) and node.id in env_names
                and isinstance(node.ctx, ast.Load)):
            return node.id
        return None

    findings: list[Finding] = []

    def visit(nodes: list, in_function: bool) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                # Decorators and defaults evaluate at def time.
                import_time = node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None]
                if not isinstance(node, ast.Lambda):
                    import_time = node.decorator_list + import_time
                visit(import_time, in_function)
                body = node.body if isinstance(node.body, list) \
                    else [node.body]
                visit(body, in_function=True)
                continue
            read = env_read(node)
            if read is not None and not in_function:
                findings.append((node.lineno, f"import-time read of {read}: "
                                 f"environment variables must resolve "
                                 f"inside the function that uses them"))
            visit(list(ast.iter_child_nodes(node)), in_function)

    visit(module.tree.body, in_function=False)
    return findings


_MUTATORS = frozenset({
    "append", "extend", "add", "discard", "remove", "pop", "popitem",
    "clear", "update", "setdefault", "insert", "sort", "reverse",
})


def generator_purity(module: Module) -> list[Finding]:
    """Scenario family builders are pure functions of (family, seed, index).

    The CLI prints that triple as the repro command for any oracle
    failure; purity is what makes the triple sufficient.  A builder
    that mutates module state (a cache, a counter, the ``FAMILIES``
    registry) or draws from sequential randomness (``make_rng``,
    ``random``, ``np.random``) makes a spec depend on how many specs
    were built before it.  Applies to every ``@scenario_family``
    function of ``repro.scenarios.generators`` and every module-local
    helper reachable from one.
    """
    if module.name != "repro.scenarios.generators":
        return []
    module_names = _module_bindings(module.tree)
    numpy_names = _numpy_aliases(module.tree)
    functions = {node.name: node for node in module.tree.body
                 if isinstance(node, ast.FunctionDef)}
    classes = {node.name: node for node in module.tree.body
               if isinstance(node, ast.ClassDef)}
    findings: list[Finding] = []
    for fn in _reachable_builders(functions, classes):
        local = _local_names(fn)

        def is_module_global(name: str) -> bool:
            return name in module_names and name not in local

        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                findings.append((node.lineno, f"generator '{fn.name}' "
                                 f"declares global {', '.join(node.names)}"))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = [node.target] if isinstance(node, ast.AugAssign) \
                    else node.targets
                for target in targets:
                    base = _subscript_base(target)
                    if base is not None and is_module_global(base):
                        findings.append((node.lineno, f"generator "
                                         f"'{fn.name}' mutates module-global "
                                         f"'{base}'"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS
                  and isinstance(node.func.value, ast.Name)
                  and is_module_global(node.func.value.id)):
                findings.append((node.lineno, f"generator '{fn.name}' calls "
                                 f"{node.func.value.id}.{node.func.attr}() "
                                 f"on module-global state"))
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in ("make_rng", "spawn_rng", "random")
                    and node.id not in local):
                findings.append((node.lineno, f"generator '{fn.name}' uses "
                                 f"sequential randomness '{node.id}'; draw "
                                 f"through the counter-based StreamRNG"))
            if (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in numpy_names):
                findings.append((node.lineno, f"generator '{fn.name}' "
                                 f"touches {node.value.id}.random; draw "
                                 f"through the counter-based StreamRNG"))
    return findings


def _reachable_builders(functions: dict[str, ast.FunctionDef],
                        classes: dict[str, ast.ClassDef],
                        ) -> list[ast.FunctionDef]:
    """Family builders plus the module-local helpers they reach."""

    def is_family_decorator(node: ast.expr) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        name = target.id if isinstance(target, ast.Name) else \
            target.attr if isinstance(target, ast.Attribute) else None
        return name == "scenario_family"

    queue = [fn for fn in functions.values()
             if any(is_family_decorator(d) for d in fn.decorator_list)]
    seen = {fn.name for fn in queue}
    result: list[ast.FunctionDef] = []
    while queue:
        fn = queue.pop()
        result.append(fn)
        # The body only: the @scenario_family decorator is registration
        # machinery, not part of the builder's logic.
        for node in (n for stmt in fn.body for n in ast.walk(stmt)):
            if not isinstance(node, ast.Name) or node.id in seen:
                continue
            if node.id in functions:
                seen.add(node.id)
                queue.append(functions[node.id])
            elif node.id in classes:
                seen.add(node.id)
                for item in classes[node.id].body:
                    if isinstance(item, ast.FunctionDef) \
                            and item.name not in seen:
                        seen.add(item.name)
                        queue.append(item)
    return result


def _local_names(fn: ast.FunctionDef) -> set[str]:
    args = fn.args
    local = {arg.arg for arg in (args.posonlyargs + args.args
                                 + args.kwonlyargs)}
    local.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            local.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            local.add(node.name)
    return local


def export_integrity(module: Module) -> list[Finding]:
    """``__all__`` is a literal that is truthful and, in packages, complete.

    Flagged: a name in ``__all__`` that nothing binds at runtime
    (``TYPE_CHECKING`` imports do not count); a computed or duplicated
    ``__all__``; and, in a ``repro`` package ``__init__``, a missing
    ``__all__`` or a public def, class or from-import left out of it —
    importable but undocumented surface.
    """
    facade = module.is_package and (module.name == "repro"
                                    or module.name.startswith("repro."))
    assignment = next(
        (node for node in module.tree.body
         if isinstance(node, ast.Assign)
         and any(isinstance(t, ast.Name) and t.id == "__all__"
                 for t in node.targets)), None)
    if assignment is None:
        return [(1, f"package {module.name} defines no __all__")] \
            if facade else []
    elements = assignment.value.elts if isinstance(
        assignment.value, (ast.List, ast.Tuple)) else None
    if elements is None or not all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in elements):
        return [(assignment.lineno, "__all__ must be a literal list/tuple "
                 "of string constants")]
    bound = _module_bindings(module.tree)
    findings: list[Finding] = []
    seen: set[str] = set()
    for element in elements:
        name = element.value
        if name in seen:
            findings.append((assignment.lineno,
                             f"__all__ lists {name!r} more than once"))
        seen.add(name)
        if "*" not in bound and name not in bound:
            findings.append((assignment.lineno, f"__all__ exports "
                             f"undefined name {name!r}"))
    if facade:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                public = [node.name]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                public = [item.asname or item.name for item in node.names
                          if item.name != "*"]
            else:
                continue
            for name in public:
                if not name.startswith("_") and name not in seen:
                    findings.append((node.lineno, f"public name {name!r} is "
                                     f"importable from {module.name} but "
                                     f"missing from __all__"))
    return findings


def fault_hygiene(module: Module) -> list[Finding]:
    """No bare ``except:`` and no swallowed broad handler in the engine.

    The retry, serial-fallback and degrade lanes of ``repro.engine``
    and the ``repro.faults`` injection layer turn failures into
    structured outcomes.  A bare ``except:`` also eats
    ``KeyboardInterrupt`` and the injected faults the chaos oracle
    steers by; an ``except Exception: pass`` hides the failure from
    callers, warnings and tests alike.  Broad handlers that do
    something (warn, chain a typed error, fall back) comply.
    """
    if not _in_scope(module, ("repro.engine", "repro.faults")):
        return []
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append((node.lineno, "bare 'except:' in a "
                             "fault-handling scope; catch a typed exception"))
            continue
        kind = node.type
        name = kind.id if isinstance(kind, ast.Name) else \
            kind.attr if isinstance(kind, ast.Attribute) else None
        swallows = all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is ...)
            for stmt in node.body)
        if name in ("Exception", "BaseException") and swallows:
            findings.append((node.lineno, f"'except {name}: pass' swallows "
                             f"the failure signal; warn, chain a typed "
                             f"error, or narrow the handler"))
    return findings


RULES: dict[str, Callable[[Module], list[Finding]]] = {
    "determinism-random": determinism_random,
    "determinism-wallclock": determinism_wallclock,
    "config-hygiene": config_hygiene,
    "generator-purity": generator_purity,
    "export-integrity": export_integrity,
    "fault-hygiene": fault_hygiene,
}


def annotation_gaps(module: Module) -> list[Finding]:
    """Every def is fully annotated: each parameter and the return.

    ``self``/``cls`` are exempt; ``*args``/``**kwargs`` are not —
    strict mode requires them typed too.
    """
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args
        if params and params[0].arg in ("self", "cls"):
            params = params[1:]
        params = params + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg is not None]
        for param in params:
            if param.annotation is None:
                findings.append((node.lineno, f"parameter {param.arg!r} of "
                                 f"'{node.name}' lacks a type annotation"))
        if node.returns is None:
            findings.append((node.lineno, f"'{node.name}' lacks a return "
                             f"annotation"))
    return findings


# ----------------------------------------------------------------------
# The gates: the shipped tree obeys every rule
# ----------------------------------------------------------------------
def _parse_file(path: Path) -> Module:
    relpath = path.relative_to(REPO_ROOT).as_posix()
    return parse(path.read_text(encoding="utf-8"), relpath)


def test_src_has_python_files():
    assert SRC_FILES, "no Python files found under src/"


@pytest.mark.parametrize(
    "path", SRC_FILES,
    ids=[path.relative_to(REPO_ROOT / "src").as_posix() for path in SRC_FILES])
def test_src_obeys(path):
    module = _parse_file(path)
    findings = [f"{path.relative_to(REPO_ROOT)}:{line}: [{rule_id}] {message}"
                for rule_id, rule in RULES.items()
                for line, message in rule(module)]
    assert not findings, "\n".join(findings)


@pytest.mark.parametrize("relpath", TYPED_CORE)
def test_typed_core_is_fully_annotated(relpath):
    gaps = annotation_gaps(_parse_file(REPO_ROOT / relpath))
    assert not gaps, "\n".join(f"{relpath}:{line}: {message}"
                               for line, message in gaps)


# ----------------------------------------------------------------------
# The fixtures: every rule flags what it must and passes what it must
# ----------------------------------------------------------------------
def run_rule(rule: Callable[[Module], list[Finding]], source: str,
             relpath: str) -> list[Finding]:
    return rule(parse(textwrap.dedent(source), relpath))


def messages(found: list[Finding]) -> str:
    return " ".join(message for _, message in found)


class TestAnnotationGaps:
    def test_flags_missing(self):
        found = run_rule(annotation_gaps, """\
            def f(x, y: int):
                return y
            """, "src/repro/api.py")
        assert "'x'" in messages(found)            # unannotated parameter
        assert "return annotation" in messages(found)

    def test_accepts_complete(self):
        found = run_rule(annotation_gaps, """\
            class C:
                def f(self, x: int, *args: int, **kw: str) -> int:
                    return x
            """, "src/repro/api.py")
        assert found == []


class TestDeterminismRandom:
    RELPATH = "src/repro/net/fixture.py"

    def test_flags_import_random(self):
        found = run_rule(determinism_random, "import random\n", self.RELPATH)
        assert len(found) == 1

    def test_flags_from_random_import(self):
        found = run_rule(determinism_random, "from random import randint\n",
                         self.RELPATH)
        assert len(found) == 1

    def test_flags_numpy_random_attribute(self):
        found = run_rule(determinism_random, """\
            import numpy as np
            RNG = np.random.default_rng(3)
            """, self.RELPATH)
        assert len(found) == 1
        assert "np.random" in messages(found)

    def test_flags_numpy_random_import(self):
        found = run_rule(determinism_random, "from numpy import random\n",
                         self.RELPATH)
        assert len(found) == 1

    def test_allows_rng_module_itself(self):
        found = run_rule(determinism_random, "import random\nimport numpy\n",
                         "src/repro/utils/rng.py")
        assert found == []

    def test_allows_type_checking_import(self):
        found = run_rule(determinism_random, """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import random

            def f(rng: "random.Random") -> float:
                return rng.random()
            """, self.RELPATH)
        assert found == []

    def test_clean_module_passes(self):
        found = run_rule(determinism_random, """\
            from repro.utils.rng import StreamRNG, make_rng
            """, self.RELPATH)
        assert found == []


class TestDeterminismWallclock:
    ENGINE = "src/repro/engine/fixture.py"

    def test_flags_time_call_in_engine(self):
        found = run_rule(determinism_wallclock, """\
            import time
            def scan():
                return time.perf_counter()
            """, self.ENGINE)
        assert len(found) == 1

    def test_flags_from_time_import(self):
        found = run_rule(determinism_wallclock, "from time import monotonic\n",
                         self.ENGINE)
        assert len(found) == 1

    def test_flags_datetime_now_in_scenarios(self):
        found = run_rule(determinism_wallclock, """\
            from datetime import datetime
            STAMP = datetime.now()
            """, "src/repro/scenarios/fixture.py")
        assert len(found) == 1

    def test_out_of_scope_module_free_to_time(self):
        found = run_rule(determinism_wallclock, """\
            import time
            def bench():
                return time.perf_counter()
            """, "src/repro/net/fixture.py")
        assert found == []

    def test_main_entry_modules_exempt(self):
        found = run_rule(determinism_wallclock, """\
            import time
            def cli():
                return time.perf_counter()
            """, "src/repro/scenarios/__main__.py")
        assert found == []

    def test_non_clock_time_attribute_ok(self):
        found = run_rule(determinism_wallclock, """\
            import time
            def f():
                return time.gmtime(0)
            """, self.ENGINE)
        assert found == []


class TestConfigHygiene:
    RELPATH = "src/repro/engine/fixture.py"

    def test_module_level_environ_read_flagged(self):
        found = run_rule(config_hygiene, """\
            import os
            WORKERS = os.environ.get("REPRO_ENGINE_WORKERS")
            """, self.RELPATH)
        assert len(found) == 1

    def test_module_level_getenv_flagged(self):
        found = run_rule(config_hygiene, """\
            import os
            WORKERS = os.getenv("REPRO_ENGINE_WORKERS")
            """, self.RELPATH)
        assert len(found) == 1

    def test_imported_environ_alias_flagged(self):
        found = run_rule(config_hygiene, """\
            from os import environ
            FLAG = environ["X"]
            """, self.RELPATH)
        assert len(found) == 1

    def test_default_parameter_value_flagged(self):
        found = run_rule(config_hygiene, """\
            import os
            def run(n=os.getenv("N")):
                return n
            """, self.RELPATH)
        assert len(found) == 1

    def test_lazy_read_inside_function_passes(self):
        found = run_rule(config_hygiene, """\
            import os
            def shard_workers():
                return os.environ.get("REPRO_ENGINE_WORKERS")
            """, self.RELPATH)
        assert found == []


class TestGeneratorPurity:
    RELPATH = "src/repro/scenarios/generators.py"
    PRELUDE = textwrap.dedent("""\
        FAMILIES = {}

        def scenario_family(name):
            def register(fn):
                FAMILIES[name] = fn
                return fn
            return register

        """)

    def check(self, source: str,
              relpath: str = RELPATH) -> list[Finding]:
        return run_rule(generator_purity,
                        self.PRELUDE + textwrap.dedent(source), relpath)

    def test_pure_builder_passes(self):
        found = self.check("""\
            @scenario_family("drift")
            def build(draws, index):
                width = draws.randint("width", 2, 9)
                return {"width": width, "index": index}
            """)
        assert found == []

    def test_registration_helper_itself_exempt(self):
        # scenario_family mutates FAMILIES by design; it is registration
        # machinery, not a builder, so it must not be flagged.
        assert self.check("") == []

    def test_global_statement_flagged(self):
        found = self.check("""\
            _COUNT = 0

            @scenario_family("drift")
            def build(draws, index):
                global _COUNT
                _COUNT += 1
                return _COUNT
            """)
        assert "global" in messages(found)

    def test_module_global_mutation_flagged(self):
        found = self.check("""\
            _CACHE = {}

            @scenario_family("drift")
            def build(draws, index):
                _CACHE[index] = draws.randint("w", 0, 4)
                return _CACHE[index]
            """)
        assert "_CACHE" in messages(found)

    def test_mutator_call_on_global_flagged(self):
        found = self.check("""\
            _SEEN = []

            @scenario_family("drift")
            def build(draws, index):
                _SEEN.append(index)
                return index
            """)
        assert "_SEEN.append" in messages(found)

    def test_sequential_rng_flagged(self):
        found = self.check("""\
            from repro.utils.rng import make_rng

            @scenario_family("drift")
            def build(draws, index):
                return make_rng(index).random()
            """)
        assert "make_rng" in messages(found)

    def test_reachable_helper_checked(self):
        found = self.check("""\
            _CACHE = {}

            def _helper(index):
                _CACHE[index] = index
                return index

            @scenario_family("drift")
            def build(draws, index):
                return _helper(index)
            """)
        assert any("_helper" in message and "_CACHE" in message
                   for _, message in found)

    def test_unreachable_helper_ignored(self):
        found = self.check("""\
            _CACHE = {}

            def warm_cache(index):
                _CACHE[index] = index

            @scenario_family("drift")
            def build(draws, index):
                return index
            """)
        assert found == []

    def test_other_modules_out_of_scope(self):
        found = self.check("""\
            _CACHE = {}

            @scenario_family("drift")
            def build(draws, index):
                _CACHE[index] = index
                return index
            """, relpath="src/repro/scenarios/spec.py")
        assert found == []


class TestExportIntegrity:
    MODULE = "src/repro/net/fixture.py"
    PACKAGE = "src/repro/widgets/__init__.py"

    def test_truthful_all_passes(self):
        found = run_rule(export_integrity, """\
            __all__ = ["f", "Thing"]

            def f():
                return 1

            class Thing:
                pass
            """, self.MODULE)
        assert found == []

    def test_undefined_export_flagged(self):
        found = run_rule(export_integrity, """\
            __all__ = ["Sessoin"]

            class Session:
                pass
            """, self.MODULE)
        assert "Sessoin" in messages(found)

    def test_dynamic_all_flagged(self):
        found = run_rule(export_integrity, """\
            names = ["a", "b"]
            __all__ = [n for n in names]
            """, self.MODULE)
        assert "literal" in messages(found)

    def test_duplicate_export_flagged(self):
        found = run_rule(export_integrity, """\
            __all__ = ["f", "f"]

            def f():
                return 1
            """, self.MODULE)
        assert "more than once" in messages(found)

    def test_package_without_all_flagged(self):
        found = run_rule(export_integrity, "VERSION = 1\n", self.PACKAGE)
        assert "defines no" in messages(found)

    def test_facade_drift_flagged(self):
        found = run_rule(export_integrity, """\
            __all__ = ["visible"]

            def visible():
                return 1

            def leaked():
                return 2
            """, self.PACKAGE)
        assert "leaked" in messages(found)

    def test_type_checking_only_import_not_a_binding(self):
        found = run_rule(export_integrity, """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.api import Session
            __all__ = ["Session"]
            """, self.MODULE)
        assert "undefined name 'Session'" in messages(found)

    def test_non_package_module_without_all_ok(self):
        found = run_rule(export_integrity, "def f():\n    return 1\n",
                         self.MODULE)
        assert found == []


class TestFaultHygiene:
    ENGINE = "src/repro/engine/fixture.py"
    FAULTS = "src/repro/faults/fixture.py"

    def test_flags_bare_except(self):
        found = run_rule(fault_hygiene, """\
            def f():
                try:
                    risky()
                except:
                    return None
            """, self.ENGINE)
        assert len(found) == 1
        assert "bare 'except:'" in messages(found)

    def test_flags_swallowed_broad_except(self):
        found = run_rule(fault_hygiene, """\
            def f():
                try:
                    risky()
                except Exception:
                    pass
            """, self.FAULTS)
        assert len(found) == 1
        assert "swallows" in messages(found)

    def test_flags_swallowed_base_exception_ellipsis_body(self):
        found = run_rule(fault_hygiene, """\
            def f():
                try:
                    risky()
                except BaseException:
                    ...
            """, self.ENGINE)
        assert len(found) == 1

    def test_allows_broad_except_with_real_body(self):
        found = run_rule(fault_hygiene, """\
            import warnings
            def f():
                try:
                    risky()
                except Exception as error:
                    warnings.warn(f"degraded: {error}")
                    return fallback()
            """, self.ENGINE)
        assert found == []

    def test_allows_narrow_typed_handler(self):
        found = run_rule(fault_hygiene, """\
            def f():
                try:
                    risky()
                except OverflowError:
                    pass
            """, self.ENGINE)
        assert found == []

    def test_out_of_scope_module_ignored(self):
        found = run_rule(fault_hygiene, """\
            def f():
                try:
                    risky()
                except:
                    pass
            """, "src/repro/net/fixture.py")
        assert found == []

    def test_main_modules_exempt(self):
        found = run_rule(fault_hygiene, """\
            try:
                run()
            except Exception:
                pass
            """, "src/repro/engine/__main__.py")
        assert found == []
