"""Rule framework: source model, import resolution and the rule registry.

Every rule is a small class over a :class:`ModuleSource` — the parsed form of
one file: its package-relative path, raw lines, ``ast`` tree, a parent map
(``ast`` has no upward links) and an *import table* resolving local names to
dotted module paths, so rules can recognise ``np.random.default_rng()`` and
``from time import perf_counter; perf_counter()`` as the same thing without
executing anything.  Rules are registered by id in :data:`RULE_REGISTRY`
(via :func:`register`), which is what the runner iterates and what
``repro check --list-rules`` prints.

The framework is stdlib-``ast`` only, matching the house no-third-party-deps
style: the checker must be runnable in every environment the library is.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import AnalysisError
from .findings import Finding, Suppression, parse_suppressions

__all__ = [
    "ModuleSource",
    "Rule",
    "RULE_REGISTRY",
    "register",
    "get_rule",
    "select_rules",
    "dotted_name",
]


def _build_import_table(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/object paths they are bound to.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy.random import default_rng`` →
    ``{"default_rng": "numpy.random.default_rng"}``.  Only module-level and
    function-level import statements are considered — good enough for lint
    resolution, with no execution.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                table[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def dotted_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an expression to a dotted name through the import table.

    ``Name("np")`` → ``"numpy"``; ``Attribute(Name("np"), "random")`` →
    ``"numpy.random"``.  A name with no import binding resolves to itself
    (it may be a builtin like ``open``); anything non-name-shaped resolves to
    ``None``.
    """
    if isinstance(node, ast.Name):
        return imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value, imports)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


@dataclass
class ModuleSource:
    """One parsed source file, ready for rules to inspect."""

    #: Package-relative POSIX path (``"repro/store/cache.py"``).
    rel: str
    #: Raw source text.
    text: str
    #: Absolute filesystem path ("" for in-memory sources in tests).
    abspath: str = ""
    lines: List[str] = dataclass_field(default_factory=list)
    tree: Optional[ast.Module] = None
    imports: Dict[str, str] = dataclass_field(default_factory=dict)
    suppressions: List[Suppression] = dataclass_field(default_factory=list)
    _parents: Optional[Dict[ast.AST, ast.AST]] = None

    @classmethod
    def parse(cls, text: str, rel: str, abspath: str = "") -> "ModuleSource":
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {rel!r}: {exc}") from exc
        return cls(
            rel=rel,
            text=text,
            abspath=abspath,
            lines=text.splitlines(),
            tree=tree,
            imports=_build_import_table(tree),
            suppressions=parse_suppressions(text.splitlines()),
        )

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over the tree (built lazily, cached)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestors, nearest first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def line_text(self, line: int) -> str:
        """Stripped text of a 1-based line ("" when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            path=self.rel,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=self.line_text(line),
        )


class Rule:
    """Base class of every lint rule.

    Subclasses set :attr:`id`, :attr:`title` and :attr:`rationale`, override
    :meth:`applies_to` to scope themselves to the module paths where the
    invariant holds, and yield findings from :meth:`check`.
    """

    id: str = ""
    title: str = ""
    #: Why the invariant matters (shown by ``repro check --list-rules``).
    rationale: str = ""

    def applies_to(self, rel: str) -> bool:
        """Whether this rule runs on the module at package-relative ``rel``."""
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.id}>"


#: Registered rules by id, in registration (= documentation) order.
RULE_REGISTRY: Dict[str, Rule] = {}


def register(rule_class: type) -> type:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    rule = rule_class()
    if not rule.id:
        raise AnalysisError(f"rule {rule_class.__name__} has no id")
    if rule.id in RULE_REGISTRY:
        raise AnalysisError(f"duplicate rule id {rule.id!r}")
    RULE_REGISTRY[rule.id] = rule
    return rule_class


def get_rule(rule_id: str) -> Rule:
    try:
        return RULE_REGISTRY[rule_id]
    except KeyError:
        raise AnalysisError(
            f"unknown rule {rule_id!r}; available: {', '.join(RULE_REGISTRY)}"
        ) from None


def select_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """The rules to run: all of them, or an explicit id selection."""
    if not select:
        return list(RULE_REGISTRY.values())
    return [get_rule(rule_id) for rule_id in select]
