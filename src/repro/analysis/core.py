"""Core of the invariant linter: rules, pragmas, and the check driver.

The library's correctness story rests on invariants that the test suite
can only observe *dynamically* — counter-based :class:`repro.utils.rng.StreamRNG` determinism, lazy
(never import-time) env-var resolution.  This package enforces them
*statically*, from the AST, so a violation is a red CI leg at review
time instead of a flaky differential failure three PRs later.

The moving parts:

* :class:`Violation` — one finding: rule id, location, message, severity.
* :class:`Rule` — a named check over one parsed module; registered via
  :func:`register_rule` and discovered by :func:`all_rules`.
* :class:`ModuleInfo` — a parsed source file plus its suppression
  pragmas, handed to every rule.
* :func:`check_paths` — the driver: collect files, parse once, run every
  (or a selected subset of) rule(s), apply pragmas, return findings.

Suppression pragmas are per-line and must carry a written reason::

    rng_np = np.random.default_rng(0)  # repro: allow[determinism-random] -- bridging legacy seed

A pragma may also sit alone on the line directly above the finding.  A
pragma *without* a reason does not suppress — it is itself reported
(rule id ``pragma-hygiene``), so exceptions stay documented forever.
Unused pragmas are reported too: a suppression that no longer matches
any finding is stale documentation and must be deleted.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import tokenize
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

__all__ = [
    "Violation",
    "Rule",
    "ModuleInfo",
    "Pragma",
    "register_rule",
    "all_rules",
    "get_rule",
    "rule_ids",
    "check_paths",
    "load_baseline",
    "save_baseline",
    "fingerprint",
]

#: Severity levels.  ``error`` findings always fail the check;
#: ``advice`` findings fail only under ``--strict``.
SEVERITIES = ("error", "advice")

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rule>[a-z0-9_-]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One static-analysis finding."""

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {SEVERITIES}")

    def format(self) -> str:
        """The one-line human rendering: ``path:line: [rule] message``."""
        tag = "" if self.severity == "error" else " (advice)"
        return f"{self.path}:{self.line}: [{self.rule}]{tag} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Pragma:
    """One ``# repro: allow[rule] -- reason`` suppression comment."""

    rule: str
    line: int
    reason: str | None

    @property
    def documented(self) -> bool:
        return bool(self.reason)


class ModuleInfo:
    """One parsed source file, as every rule sees it.

    Attributes:
        path: the file's path as given to the driver.
        relpath: path relative to the checked root (stable across
            machines — what fingerprints and reports use).
        module: dotted module name under the checked root (best-effort:
            derived from the path, ``src`` prefix stripped).
        source: the file text.
        lines: the file split into lines (1-indexed via ``lines[i-1]``).
        tree: the parsed :mod:`ast` module node.
        pragmas: suppression pragmas by line number.
    """

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.module = _module_name(relpath)
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.pragmas: dict[int, Pragma] = _collect_pragmas(self.lines)

    @classmethod
    def from_source(cls, source: str, relpath: str) -> "ModuleInfo":
        """Parse a source string as if it lived at ``relpath``.

        The rule scopes key off the module name derived from the path
        (e.g. ``src/repro/scenarios/generators.py``), so fixture tests
        can exercise path-scoped rules on synthetic snippets.

        Raises:
            SyntaxError: when the snippet does not parse.
        """
        tree = ast.parse(source, filename=relpath)
        return cls(path=Path(relpath), relpath=relpath, source=source,
                   tree=tree)

    def line_text(self, line: int) -> str:
        """The source text of a 1-indexed line ('' past the end)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def pragma_for(self, rule: str, line: int) -> Pragma | None:
        """The pragma suppressing ``rule`` at ``line``, if any.

        A pragma applies to its own line, or — when it is the only
        thing on its line — to the line directly below it.
        """
        own = self.pragmas.get(line)
        if own is not None and own.rule == rule:
            return own
        above = self.pragmas.get(line - 1)
        if (above is not None and above.rule == rule
                and self.line_text(line - 1).lstrip().startswith("#")):
            return above
        return None


def _module_name(relpath: str) -> str:
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_pragmas(lines: Sequence[str]) -> dict[int, Pragma]:
    """Suppression pragmas by line, read from *comment tokens* only.

    Tokenizing (rather than regex-scanning raw lines) means a pragma
    spelled inside a string literal or docstring — documentation, not
    suppression — never silences a finding.
    """
    pragmas: dict[int, Pragma] = {}
    reader = io.StringIO("\n".join(lines) + "\n").readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return pragmas
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is not None:
            number = token.start[0]
            pragmas[number] = Pragma(rule=match.group("rule"), line=number,
                                     reason=match.group("reason"))
    return pragmas


# ----------------------------------------------------------------------
# The rule registry
# ----------------------------------------------------------------------
class Rule:
    """One named invariant check.

    Subclasses (or :func:`register_rule`-wrapped functions) implement
    :meth:`check`, yielding :class:`Violation` objects for one module.
    ``explain`` is the rule's long-form documentation — what invariant
    it guards, why the invariant matters, and how to comply — shown by
    ``python -m repro.analysis explain <rule>``.
    """

    id: str = ""
    summary: str = ""
    explain: str = ""

    def check(self, info: ModuleInfo) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, info: ModuleInfo, node: ast.AST | int,
                  message: str, severity: str = "error") -> Violation:
        """Build a finding for an AST node (or explicit line) of ``info``."""
        line = node if isinstance(node, int) else node.lineno
        return Violation(rule=self.id, path=info.relpath, line=line,
                         message=message, severity=severity)


_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule | type[Rule]) -> Rule:
    """Add a rule (instance or class) to the registry; returns the instance.

    Raises:
        ValueError: on a missing or duplicate rule id — two rules
            sharing an id would make pragmas ambiguous.
    """
    instance = rule() if isinstance(rule, type) else rule
    if not instance.id:
        raise ValueError(f"rule {instance!r} has no id")
    if instance.id in _RULES:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    _RULES[instance.id] = instance
    return instance


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in id order."""
    _ensure_builtin_rules()
    return tuple(_RULES[key] for key in sorted(_RULES))


def rule_ids() -> tuple[str, ...]:
    _ensure_builtin_rules()
    return tuple(sorted(_RULES))


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id.

    Raises:
        KeyError: for an unknown id (listing the known ones).
    """
    _ensure_builtin_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {known}") from None


def _ensure_builtin_rules() -> None:
    # The built-in rules register on import; importing lazily here keeps
    # core importable from rules.py without a cycle.
    from repro.analysis import rules as _rules  # noqa: F401


# ----------------------------------------------------------------------
# File collection and the check driver
# ----------------------------------------------------------------------
def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted.

    Raises:
        FileNotFoundError: when a named path does not exist — a typo'd
            CI path silently checking nothing would defeat the gate.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def parse_module(path: Path, root: Path | None = None) -> ModuleInfo:
    """Read and parse one file into a :class:`ModuleInfo`.

    Raises:
        SyntaxError: when the file does not parse — surfaced as a
            finding by :func:`check_paths`, raised when called directly.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    try:
        relpath = str(path.resolve().relative_to(
            (root or Path.cwd()).resolve()))
    except ValueError:
        relpath = str(path)
    return ModuleInfo(path=path, relpath=relpath, source=source, tree=tree)


def check_paths(paths: Sequence[str | Path], *,
                rules: Sequence[str] | None = None,
                root: Path | None = None,
                baseline: set[str] | None = None,
                ) -> tuple[list[Violation], list[Violation]]:
    """Run the linter over files/directories.

    Args:
        paths: files or directories to check.
        rules: rule ids to run (default: all registered rules).
        root: directory report paths are made relative to (default cwd).
        baseline: accepted-violation fingerprints (see
            :func:`fingerprint`) to filter out of the result.

    Returns:
        ``(active, suppressed)`` — findings that stand, and findings a
        documented pragma or the baseline absorbed.  Pragma hygiene
        problems (missing reason, unknown rule id, unused pragma) are
        reported in ``active`` under rule id ``pragma-hygiene``.
    """
    selected = ([get_rule(rule_id) for rule_id in rules]
                if rules is not None else list(all_rules()))
    active: list[Violation] = []
    suppressed: list[Violation] = []
    for path in iter_python_files(paths):
        try:
            info = parse_module(path, root=root)
        except SyntaxError as error:
            active.append(Violation(
                rule="parse-error", path=str(path),
                line=error.lineno or 1,
                message=f"file does not parse: {error.msg}"))
            continue
        used_pragmas: set[int] = set()
        for rule in selected:
            for finding in rule.check(info):
                pragma = info.pragma_for(finding.rule, finding.line)
                if pragma is None:
                    active.append(finding)
                elif not pragma.documented:
                    used_pragmas.add(pragma.line)
                    active.append(Violation(
                        rule="pragma-hygiene", path=info.relpath,
                        line=pragma.line,
                        message=(f"pragma allow[{finding.rule}] has no "
                                 f"reason; write '# repro: "
                                 f"allow[{finding.rule}] -- <why>' "
                                 f"(suppressing: {finding.message})")))
                else:
                    used_pragmas.add(pragma.line)
                    suppressed.append(finding)
        active.extend(_pragma_hygiene(info, selected, used_pragmas))
    if baseline:
        kept: list[Violation] = []
        for finding in active:
            if fingerprint(finding) in baseline:
                suppressed.append(finding)
            else:
                kept.append(finding)
        active = kept
    order = {rule.id: index for index, rule in enumerate(selected)}
    active.sort(key=lambda v: (v.path, v.line, order.get(v.rule, -1)))
    suppressed.sort(key=lambda v: (v.path, v.line))
    return active, suppressed


def _pragma_hygiene(info: ModuleInfo, selected: Sequence[Rule],
                    used: set[int]) -> Iterator[Violation]:
    """Findings about the pragmas themselves: unknown ids, stale allows."""
    selected_ids = {rule.id for rule in selected}
    known = set(rule_ids())
    for line, pragma in sorted(info.pragmas.items()):
        if pragma.rule not in known:
            yield Violation(
                rule="pragma-hygiene", path=info.relpath, line=line,
                message=(f"pragma names unknown rule "
                         f"{pragma.rule!r}; known: "
                         f"{', '.join(sorted(known))}"))
        elif pragma.rule in selected_ids and line not in used:
            yield Violation(
                rule="pragma-hygiene", path=info.relpath, line=line,
                message=(f"unused pragma allow[{pragma.rule}]: no "
                         f"{pragma.rule} finding on this line — delete "
                         f"the stale suppression"))


# ----------------------------------------------------------------------
# Baselines: accept today's findings, fail only on new ones
# ----------------------------------------------------------------------
def fingerprint(violation: Violation) -> str:
    """A line-shift-tolerant identity for one finding.

    Keyed on ``(rule, path, message)`` — not the line number — so
    unrelated edits above a baselined finding do not resurrect it.
    """
    return f"{violation.rule}|{violation.path}|{violation.message}"


def save_baseline(path: str | Path, violations: Iterable[Violation]) -> int:
    """Write a baseline file; returns the number of entries."""
    entries = sorted({fingerprint(v) for v in violations})
    Path(path).write_text(
        json.dumps({"version": 1, "accepted": entries}, indent=2) + "\n",
        encoding="utf-8")
    return len(entries)


def load_baseline(path: str | Path) -> set[str]:
    """Read a :func:`save_baseline` file back into a fingerprint set.

    Raises:
        ValueError: when the file is not a version-1 baseline.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("version") != 1 \
            or not isinstance(data.get("accepted"), list):
        raise ValueError(f"{path} is not a repro.analysis baseline file")
    return set(data["accepted"])


# Callable-style rule registration for simple checks.
def rule(rule_id: str, summary: str, explain: str = ""):
    """Decorator: register ``fn(info) -> Iterator[Violation]`` as a rule."""

    def _register(fn: Callable[[ModuleInfo], Iterator[Violation]]) -> Rule:
        class _FunctionRule(Rule):
            id = rule_id

        _FunctionRule.summary = summary
        _FunctionRule.explain = explain or summary
        _FunctionRule.check = staticmethod(fn)  # type: ignore[assignment]
        _FunctionRule.__name__ = f"rule_{rule_id.replace('-', '_')}"
        return register_rule(_FunctionRule)

    return _register
