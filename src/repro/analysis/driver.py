"""The reprolint driver: walk files, run rules, apply suppressions.

Two entry points:

* :func:`run` — the production path: walk the given files/directories,
  parse every ``.py`` file, run all registered rules, return a
  :class:`~repro.analysis.core.Report`;
* :func:`analyze_project` — analyse a dict of ``{path: source}``; :func:`run`
  reads the files into one, and rule tests pass in-memory violation
  fixtures without planting files that the CI gate would then scan.
"""

from __future__ import annotations

from pathlib import Path, PurePosixPath
from typing import Iterable, Mapping, Sequence

from repro.analysis.core import RULES, Finding, Module, Project, Report, Rule

__all__ = ["analyze_project", "collect_files", "role_of", "run"]

#: Directory names never worth descending into.
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    ".mypy_cache",
    ".ruff_cache",
    ".venv",
    "venv",
    "node_modules",
}


def role_of(path: str) -> str:
    """Infer a module's role from its path parts.

    Anything under a ``tests`` or ``benchmarks`` directory (or named like a
    test module) carries that role; everything else is library ``src`` code.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    if "tests" in parts:
        return "tests"
    if "benchmarks" in parts:
        return "benchmarks"
    name = parts[-1] if parts else ""
    if name.startswith("test_") or name.endswith("_test.py"):
        return "tests"
    return "src"


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _selected_rules(select: Iterable[str] | None) -> list[Rule]:
    if select is None:
        return [RULES[rule_id] for rule_id in sorted(RULES)]
    missing = sorted(set(select) - set(RULES))
    if missing:
        raise KeyError(f"unknown rule id(s): {', '.join(missing)}")
    return [RULES[rule_id] for rule_id in sorted(set(select))]


def _analyze(modules: list[Module], parse_failures: list[Finding], select: Iterable[str] | None) -> Report:
    # Rules are imported lazily so ``import repro.analysis.core`` alone does
    # not drag every rule module in; the driver needs them all registered.
    import repro.analysis.rules  # noqa: F401

    project = Project(modules)
    rules = _selected_rules(select)
    findings: list[Finding] = list(parse_failures)
    for rule in rules:
        for module in project:
            if not rule.applies_to(module):
                continue
            for finding in rule.check_module(module, project):
                findings.append(_mark_suppressed(finding, module))
        for finding in rule.finalize(project):
            module = _module_for(project, finding.path)
            findings.append(
                _mark_suppressed(finding, module) if module is not None else finding
            )
    findings.sort(key=Finding.key)
    return Report(findings=findings, files_scanned=len(modules) + len(parse_failures))


def _module_for(project: Project, path: str) -> Module | None:
    for module in project:
        if module.path == path:
            return module
    return None


def _mark_suppressed(finding: Finding, module: Module) -> Finding:
    if module.suppressions.is_suppressed(finding.rule, finding.line):
        return Finding(
            rule=finding.rule,
            message=finding.message,
            path=finding.path,
            line=finding.line,
            col=finding.col,
            suppressed=True,
        )
    return finding


def run(paths: Sequence[str | Path], *, select: Iterable[str] | None = None) -> Report:
    """Analyse the given files/directories and return a report."""
    sources = {
        str(PurePosixPath(*path.parts)): path.read_text(encoding="utf-8")
        for path in collect_files(paths)
    }
    return analyze_project(sources, select=select)


def analyze_project(
    sources: Mapping[str, str], *, select: Iterable[str] | None = None
) -> Report:
    """Analyse ``{path: source}`` (files read by :func:`run`, or test fixtures)."""
    modules: list[Module] = []
    parse_failures: list[Finding] = []
    for path, source in sources.items():
        try:
            modules.append(Module(path, source, role=role_of(path)))
        except SyntaxError as exc:
            parse_failures.append(
                Finding(
                    rule="parse-error",
                    message=f"cannot parse file: {exc.msg}",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                )
            )
    return _analyze(modules, parse_failures, select)
