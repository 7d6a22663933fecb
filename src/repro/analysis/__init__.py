"""reprolint: project-invariant static analysis.

Public surface:

* :func:`repro.analysis.driver.run` / :func:`repro.analysis.driver.analyze_project`
* ``python -m repro.analysis`` / ``repro lint`` (CLI, CI gate)

See ``docs/analysis.md`` for the rule catalog.
"""

from repro.analysis.core import RULES, Finding, Module, Project, Report, Rule, register
from repro.analysis.driver import analyze_project, run

__all__ = [
    "Finding",
    "Module",
    "Project",
    "Report",
    "Rule",
    "RULES",
    "analyze_project",
    "register",
    "run",
]
