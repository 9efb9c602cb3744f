"""The codebase-specific invariant rules.

Each rule guards one invariant the differential test suites otherwise
only catch dynamically:

* ``determinism-random`` — all randomness flows through
  :mod:`repro.utils.rng`; no ``random`` / ``numpy.random`` anywhere else.
* ``determinism-wallclock`` — no wall-clock reads inside the engine or
  scenario observation paths.
* ``config-hygiene`` — no import-time ``os.environ`` reads (PR 4's bug
  class, pinned forever).
* ``generator-purity`` — scenario generators are pure functions of
  ``(family, seed, index)``: no module-global mutation, no
  non-``StreamRNG`` randomness.
* ``export-integrity`` — every ``repro.*`` package ``__all__`` is a
  literal that names only defined symbols and covers the public facade.
* ``fault-hygiene`` — no bare ``except:`` and no silently swallowed
  ``except Exception:`` inside ``repro.engine`` / ``repro.faults``; the
  resilience lanes must observe every failure they handle.

Rules are registered on import (see
:func:`repro.analysis.core.register_rule`); the driver and the CLI pick
them up from the registry.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import ModuleInfo, Rule, Violation, register_rule

__all__ = [
    "DeterminismRandomRule",
    "DeterminismWallclockRule",
    "ConfigHygieneRule",
    "GeneratorPurityRule",
    "ExportIntegrityRule",
    "FaultHygieneRule",
]


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
    determinism; rules that police imports use this walker to permit
    the ``TYPE_CHECKING`` idiom.
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


# ----------------------------------------------------------------------
# Rule: determinism-random
# ----------------------------------------------------------------------
@register_rule
class DeterminismRandomRule(Rule):
    id = "determinism-random"
    summary = ("randomness outside repro.utils.rng: no 'random' or "
               "'numpy.random' imports/uses elsewhere")
    explain = """\
All randomness must flow through repro.utils.rng.

The differential oracle replays every scenario across {numpy, python}
x {1, 2 workers} x {full, incremental} engine paths and demands
bit-identical observations.  That only holds because every random draw
is a counter-based StreamRNG value — a pure function of
(seed, stream, slot, draw) — or a random.Random seeded through
make_rng/spawn_rng.  A stray `import random` or `np.random.*` call
reintroduces hidden sequential state: results start depending on call
order, window chunking, and which worker ran first.

Complies: from repro.utils.rng import StreamRNG, make_rng, make_np_rng
Violates: import random; random.random(); np.random.default_rng(...)

`import random` under `if TYPE_CHECKING:` is permitted — annotations
such as `random.Random` never execute at runtime.  Only
repro/utils/rng.py itself may touch the underlying modules.
"""

    ALLOWED_MODULES = ("repro.utils.rng",)

    def check(self, info: ModuleInfo) -> Iterator[Violation]:
        if info.module in self.ALLOWED_MODULES:
            return
        numpy_names = _numpy_aliases(info.tree)
        for node in _runtime_walk(info.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    root = item.name.split(".")[0]
                    if root == "random":
                        yield self.violation(info,
                            node, "import of the 'random' module outside "
                            "repro.utils.rng; draw through StreamRNG / "
                            "make_rng instead (typing-only imports go "
                            "under 'if TYPE_CHECKING:')")
                    elif item.name.startswith("numpy.random"):
                        yield self.violation(info,
                            node, "import of numpy.random outside "
                            "repro.utils.rng; seed through "
                            "repro.utils.rng.make_np_rng instead")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    yield self.violation(info,
                        node, "from-import of the 'random' module outside "
                        "repro.utils.rng; draw through StreamRNG / "
                        "make_rng instead")
                elif module.startswith("numpy.random") or (
                        module == "numpy"
                        and any(item.name == "random"
                                for item in node.names)):
                    yield self.violation(info,
                        node, "from-import of numpy.random outside "
                        "repro.utils.rng; seed through "
                        "repro.utils.rng.make_np_rng instead")
            elif isinstance(node, ast.Attribute):
                if (node.attr == "random"
                        and isinstance(node.value, ast.Name)
                        and node.value.id in numpy_names):
                    yield self.violation(info,
                        node, f"use of {node.value.id}.random outside "
                        f"repro.utils.rng; seed through "
                        f"repro.utils.rng.make_np_rng instead")


# ----------------------------------------------------------------------
# Rule: determinism-wallclock
# ----------------------------------------------------------------------
@register_rule
class DeterminismWallclockRule(Rule):
    id = "determinism-wallclock"
    summary = ("no wall-clock reads (time.time/perf_counter/...) inside "
               "repro.engine / repro.scenarios observation paths")
    explain = """\
Engine and scenario observations must be reproducible, so nothing on
those paths may read the wall clock.

The scenario oracle asserts bit-identical observations across 16
engine paths; a timestamp smuggled into a result (or into control flow
— "stop scanning after N ms") silently breaks replay.  Benchmarks and
experiment runners live outside these packages and may time freely;
the `python -m ...` CLI entry modules (`__main__`) are also exempt —
they report elapsed wall time to a human and never feed it back into
observations.

Complies: timing in benchmarks/, repro.experiments, or a __main__ CLI
Violates: time.time(), time.perf_counter(), datetime.now() inside
repro.engine.* or repro.scenarios.* library modules
"""

    SCOPES = ("repro.engine", "repro.scenarios")
    CLOCK_NAMES = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    })
    DATETIME_NAMES = frozenset({"now", "utcnow", "today"})

    def _in_scope(self, module: str) -> bool:
        if module.rpartition(".")[2] == "__main__":
            return False
        return any(module == scope or module.startswith(scope + ".")
                   for scope in self.SCOPES)

    def check(self, info: ModuleInfo) -> Iterator[Violation]:
        if not self._in_scope(info.module):
            return
        for node in _runtime_walk(info.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "time":
                    for item in node.names:
                        if item.name in self.CLOCK_NAMES:
                            yield self.violation(info,
                                node, f"wall-clock import "
                                f"'from time import {item.name}' on an "
                                f"observation path; time outside "
                                f"repro.engine/repro.scenarios")
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name):
                base = node.value.id
                if base == "time" and node.attr in self.CLOCK_NAMES:
                    yield self.violation(info,
                        node, f"wall-clock read time.{node.attr} on an "
                        f"observation path; engine/scenario results "
                        f"must be replayable")
                elif (base in ("datetime", "date")
                      and node.attr in self.DATETIME_NAMES):
                    yield self.violation(info,
                        node, f"wall-clock read {base}.{node.attr} on an "
                        f"observation path; engine/scenario results "
                        f"must be replayable")


# ----------------------------------------------------------------------
# Rule: config-hygiene
# ----------------------------------------------------------------------
@register_rule
class ConfigHygieneRule(Rule):
    id = "config-hygiene"
    summary = ("no import-time os.environ reads: env vars resolve lazily, "
               "at call time")
    explain = """\
Environment variables must be read lazily, at call time — never at
import time.

This bug class has happened: repro.engine.parallel once captured
REPRO_ENGINE_WORKERS at import, so configuring the environment after
`import repro` silently did nothing.  The resolution order
(session config > use_config > env > builtin) only holds when the
env read happens inside the resolving function.

This rule flags any os.environ / os.getenv reference that evaluates at
import time: module top level, class bodies, decorators, and — easy to
miss — default parameter values, which evaluate once at def time.

Complies: def shard_workers(): return _parse(os.environ.get(...))
Violates: _WORKERS = os.environ.get("REPRO_ENGINE_WORKERS")
Violates: def run(n=os.getenv("N")): ...
"""

    def check(self, info: ModuleInfo) -> Iterator[Violation]:
        env_names = self._env_aliases(info.tree)
        yield from self._visit(info, info.tree.body, env_names,
                               in_function=False)

    def _env_aliases(self, tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                for item in node.names:
                    if item.name in ("environ", "getenv"):
                        names.add(item.asname or item.name)
        return names

    def _is_env_read(self, node: ast.AST, env_names: set[str]) -> str | None:
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == "os" \
                and node.attr in ("environ", "getenv"):
            return f"os.{node.attr}"
        if isinstance(node, ast.Name) and node.id in env_names \
                and isinstance(node.ctx, ast.Load):
            return node.id
        return None

    def _visit(self, info: ModuleInfo, nodes, env_names: set[str],
               in_function: bool) -> Iterator[Violation]:
        for node in nodes if isinstance(nodes, list) else [nodes]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Decorators and default values evaluate at def time —
                # i.e. at import time for module/class-level defs.
                import_time = node.decorator_list + node.args.defaults + \
                    [d for d in node.args.kw_defaults if d is not None]
                for expr in import_time:
                    yield from self._visit(info, expr, env_names,
                                           in_function)
                yield from self._visit(info, node.body, env_names,
                                       in_function=True)
                continue
            if isinstance(node, ast.Lambda):
                for expr in node.args.defaults + [
                        d for d in node.args.kw_defaults if d is not None]:
                    yield from self._visit(info, expr, env_names,
                                           in_function)
                yield from self._visit(info, node.body, env_names,
                                       in_function=True)
                continue
            read = self._is_env_read(node, env_names)
            if read is not None and not in_function:
                yield self.violation(info,
                    node, f"import-time read of {read}: environment "
                    f"variables must resolve lazily inside the function "
                    f"that uses them (session config > use_config > env > "
                    f"builtin)")
            yield from self._visit(info, list(ast.iter_child_nodes(node)),
                                   env_names, in_function)


# ----------------------------------------------------------------------
# Rule: generator-purity
# ----------------------------------------------------------------------
@register_rule
class GeneratorPurityRule(Rule):
    id = "generator-purity"
    summary = ("scenario generator families are pure functions of "
               "(family, seed, index): no global mutation, StreamRNG only")
    explain = """\
Scenario specs must be pure functions of (family, seed, index).

The CLI prints that triple as the standalone repro command for any
oracle failure; purity is what makes the triple sufficient.  A family
builder that mutates module state (a cache, a counter, the FAMILIES
registry) or draws from sequential randomness (make_rng, random.*,
np.random.*) produces specs that depend on how many specs were built
before — the repro command stops reproducing.

The rule applies to every function registered with @scenario_family
and every module-local helper reachable from one.  Draw randomness
exclusively from the counter-based StreamRNG (via label_stream-keyed
streams); read module constants freely, mutate nothing module-level.

Complies: draws.randint("window-x", -5, 5)   # StreamRNG under the hood
Violates: _CACHE[key] = spec; make_rng(seed).random()
"""

    TARGET_MODULES = ("repro.scenarios.generators",)
    FORBIDDEN_RNG = frozenset({"make_rng", "spawn_rng"})
    MUTATORS = frozenset({
        "append", "extend", "add", "discard", "remove", "pop", "popitem",
        "clear", "update", "setdefault", "insert", "sort", "reverse",
    })

    def check(self, info: ModuleInfo) -> Iterator[Violation]:
        if info.module not in self.TARGET_MODULES:
            return
        module_names = _module_bindings(info.tree)
        functions: dict[str, ast.FunctionDef] = {}
        classes: dict[str, ast.ClassDef] = {}
        for node in info.tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node
        targets = self._reachable(functions, classes)
        numpy_names = _numpy_aliases(info.tree)
        for fn in targets:
            yield from self._check_function(info, fn, module_names,
                                            numpy_names)

    def _reachable(self, functions: dict[str, ast.FunctionDef],
                   classes: dict[str, ast.ClassDef],
                   ) -> list[ast.FunctionDef]:
        """Family builders plus module-local helpers they reach."""
        queue = [fn for fn in functions.values()
                 if any(self._is_family_decorator(d)
                        for d in fn.decorator_list)]
        seen = {fn.name for fn in queue}
        result: list[ast.FunctionDef] = []
        while queue:
            fn = queue.pop()
            result.append(fn)
            # Walk the body only: the @scenario_family decorator call is
            # registration machinery, not part of the builder's logic.
            for node in (n for stmt in fn.body for n in ast.walk(stmt)):
                if not isinstance(node, ast.Name):
                    continue
                if node.id in functions and node.id not in seen:
                    seen.add(node.id)
                    queue.append(functions[node.id])
                elif node.id in classes and node.id not in seen:
                    seen.add(node.id)
                    for item in classes[node.id].body:
                        if isinstance(item, ast.FunctionDef) \
                                and item.name not in seen:
                            seen.add(item.name)
                            queue.append(item)
        return result

    def _is_family_decorator(self, node: ast.expr) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        name = target.id if isinstance(target, ast.Name) else \
            target.attr if isinstance(target, ast.Attribute) else None
        return name == "scenario_family"

    def _local_names(self, fn: ast.FunctionDef) -> set[str]:
        local = {arg.arg for arg in (
            fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs)}
        if fn.args.vararg:
            local.add(fn.args.vararg.arg)
        if fn.args.kwarg:
            local.add(fn.args.kwarg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                local.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)) and node is not fn:
                local.add(node.name)
        return local

    def _check_function(self, info: ModuleInfo, fn: ast.FunctionDef,
                        module_names: set[str],
                        numpy_names: set[str]) -> Iterator[Violation]:
        local = self._local_names(fn)

        def is_module_global(name: str) -> bool:
            return name in module_names and name not in local

        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                yield self.violation(info,
                    node, f"generator '{fn.name}' declares "
                    f"global {', '.join(node.names)}: family builders "
                    f"must be pure functions of (family, seed, index)")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target] if isinstance(node, ast.AugAssign) \
                    else node.targets
                for target in targets:
                    base = _subscript_base(target)
                    if base is not None and is_module_global(base):
                        yield self.violation(info,
                            node, f"generator '{fn.name}' mutates "
                            f"module-global '{base}': specs would depend "
                            f"on generation history, breaking the "
                            f"(family, seed, index) repro contract")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in self.MUTATORS \
                        and isinstance(func.value, ast.Name) \
                        and is_module_global(func.value.id):
                    yield self.violation(info,
                        node, f"generator '{fn.name}' calls "
                        f"{func.value.id}.{func.attr}(): mutating "
                        f"module-global state breaks the "
                        f"(family, seed, index) repro contract")
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.FORBIDDEN_RNG and node.id not in local:
                    yield self.violation(info,
                        node, f"generator '{fn.name}' uses sequential "
                        f"randomness '{node.id}'; draw through the "
                        f"counter-based StreamRNG (label_stream-keyed) "
                        f"so specs stay order-independent")
                elif node.id == "random" and node.id not in local:
                    yield self.violation(info,
                        node, f"generator '{fn.name}' touches the "
                        f"'random' module; draw through the counter-"
                        f"based StreamRNG instead")
            if isinstance(node, ast.Attribute) and node.attr == "random" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in numpy_names:
                yield self.violation(info,
                    node, f"generator '{fn.name}' touches "
                    f"{node.value.id}.random; draw through the counter-"
                    f"based StreamRNG instead")


# ----------------------------------------------------------------------
# Rule: fault-hygiene
# ----------------------------------------------------------------------
@register_rule
class FaultHygieneRule(Rule):
    id = "fault-hygiene"
    summary = ("no bare 'except:' and no swallowed 'except Exception:' "
               "inside repro.engine / repro.faults")
    explain = """\
The resilience lanes must observe every failure they handle.

repro.engine's retry/serial-fallback/degrade paths and the repro.faults
injection layer exist to turn failures into *structured* outcomes —
a retry, a typed ShardFailure, an EngineDegradedWarning, a chaos
verdict.  A bare `except:` (which also eats KeyboardInterrupt and the
injected-fault exceptions the chaos oracle steers by) or an
`except Exception: pass` (which makes a failure invisible to callers,
warnings and tests alike) silently deletes exactly the signal this
fault model is built on.

Two shapes are flagged inside repro.engine and repro.faults:

1. a handler with no exception type (`except:`);
2. a broad handler (`except Exception:` / `except BaseException:`)
   whose body does nothing but `pass`/`...` — caught and discarded.

Broad handlers that *do* something (degrade with a warning, chain into
a typed error, fall back to a reference lane) comply.  A deliberate
swallow needs a reasoned pragma:

Complies: except Exception as error: warnings.warn(EngineDegradedWarning(...))
Complies: except OverflowError: return None  # narrow, typed
Violates: except: pass
Violates: except Exception:
              pass
"""

    SCOPES = ("repro.engine", "repro.faults")
    BROAD = frozenset({"Exception", "BaseException"})

    def _in_scope(self, module: str) -> bool:
        if module.rpartition(".")[2] == "__main__":
            return False
        return any(module == scope or module.startswith(scope + ".")
                   for scope in self.SCOPES)

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        node = handler.type
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        return name in self.BROAD

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Constant) and stmt.value.value is ...:
                continue
            return False
        return True

    def check(self, info: ModuleInfo) -> Iterator[Violation]:
        if not self._in_scope(info.module):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(info,
                    node, "bare 'except:' in a fault-handling scope: it "
                    "eats KeyboardInterrupt and the injected-fault "
                    "exceptions the chaos oracle steers by; catch a "
                    "typed exception and surface a structured outcome")
            elif self._is_broad(node) and self._swallows(node):
                yield self.violation(info,
                    node, "'except Exception: pass' swallows the failure "
                    "signal the resilience lanes are built on; degrade "
                    "with a warning, chain into a typed error, or "
                    "narrow the handler")


def _subscript_base(target: ast.expr) -> str | None:
    """The root Name of a ``X[...]`` / ``X.attr`` store target, if any."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _module_bindings(tree: ast.Module,
                     include_type_checking: bool = False) -> set[str]:
    """Names bound at module level (imports, defs, assignments).

    Walks conditional bodies too (an ``if``-guarded def still binds),
    excluding ``if TYPE_CHECKING:`` blocks unless asked — those names
    do not exist at runtime.
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
                    if item.name == "*":
                        names.add("*")
                    else:
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
                if _is_type_checking_test(node.test) \
                        and not include_type_checking:
                    visit(node.orelse)
                else:
                    visit(node.body)
                    visit(node.orelse)
            elif isinstance(node, (ast.Try,)):
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


def _target_names(target: ast.expr) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


# ----------------------------------------------------------------------
# Rule: export-integrity
# ----------------------------------------------------------------------
@register_rule
class ExportIntegrityRule(Rule):
    id = "export-integrity"
    summary = ("__all__ in every repro package is a literal naming only "
               "defined symbols and covering the public facade")
    explain = """\
__all__ is the facade contract: it must be statically checkable,
truthful, and complete.

Three failure modes are flagged:

1. Undefined exports — a name in __all__ with no module-level binding
   breaks `from repro.x import *` and lies to readers about the
   surface.  (TYPE_CHECKING-only imports do not count: they vanish at
   runtime.)
2. Dynamic or duplicated __all__ — a computed __all__ defeats every
   static consumer (this linter, IDEs, stub generators); duplicates
   are copy-paste debris.
3. Facade drift (package __init__ only) — a public name bound by a
   def, class, or from-import that is missing from __all__ is
   importable-but-undocumented surface; export it or underscore it.
   Package __init__ files must define __all__ at all.

Complies: __all__ = ["Session", "EngineConfig"]  (all bound, all public
names covered)
Violates: __all__ = ["Sessoin"]; __all__ = [n for n in ...]
"""

    def check(self, info: ModuleInfo) -> Iterator[Violation]:
        assignment = self._find_all(info.tree)
        is_package = info.path.name == "__init__.py"
        in_repro = info.module == "repro" or info.module.startswith("repro.")
        if assignment is None:
            if is_package and in_repro:
                yield self.violation(info,
                    1, f"package {info.module or info.relpath} defines no "
                    f"__all__; every repro package must declare its "
                    f"export surface")
            return
        names = self._literal_names(assignment.value)
        if names is None:
            yield self.violation(info,
                assignment, "__all__ must be a literal list/tuple of "
                "string constants; a computed __all__ defeats static "
                "checking")
            return
        bound = _module_bindings(info.tree)
        star_import = "*" in bound
        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield self.violation(info,
                    assignment, f"__all__ lists {name!r} more than once")
            seen.add(name)
            if not star_import and name not in bound:
                yield self.violation(info,
                    assignment, f"__all__ exports undefined name "
                    f"{name!r}: no module-level def, class, assignment "
                    f"or runtime import binds it")
        if is_package and in_repro:
            for node, name in self._public_bindings(info.tree):
                if name not in seen:
                    yield self.violation(info,
                        node, f"public name {name!r} is importable from "
                        f"{info.module} but missing from __all__; export "
                        f"it or rename it with a leading underscore")

    def _find_all(self, tree: ast.Module) -> ast.Assign | None:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                return node
        return None

    def _literal_names(self, value: ast.expr) -> list[str] | None:
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None
        names: list[str] = []
        for element in value.elts:
            if not isinstance(element, ast.Constant) \
                    or not isinstance(element.value, str):
                return None
            names.append(element.value)
        return names

    def _public_bindings(self, tree: ast.Module,
                         ) -> Iterator[tuple[ast.stmt, str]]:
        """(node, name) for public facade bindings in a package body."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node, node.name
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for item in node.names:
                    if item.name == "*":
                        continue
                    name = item.asname or item.name
                    if not name.startswith("_"):
                        yield node, name
