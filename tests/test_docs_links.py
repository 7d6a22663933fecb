"""Documentation health checks: intra-repo links resolve, quickstart runs.

CI's ``docs`` job runs this module.  It fails on

* broken intra-repo links (file targets and ``#heading`` anchors) in
  ``docs/**/*.md`` and ``README.md``, and
* a ``docs/api.md`` or README quickstart, or an ``examples/*.py`` script,
  that no longer executes against the current code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links/images: ``[text](target)`` / ``![alt](target)``.
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE_PATTERN = re.compile(r"```.*?```", re.DOTALL)


def markdown_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").rglob("*.md")))
    return files


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug (enough of it for our headings)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s+", "-", slug)


def anchors_of(path: Path) -> set[str]:
    text = FENCE_PATTERN.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(match.group(1)) for match in HEADING_PATTERN.finditer(text)}


def links_of(path: Path) -> list[str]:
    text = FENCE_PATTERN.sub("", path.read_text(encoding="utf-8"))
    return [match.group(1) for match in LINK_PATTERN.finditer(text)]


@pytest.mark.parametrize("path", markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_intra_repo_links_resolve(path: Path):
    assert path.exists(), f"documentation page {path} is missing"
    broken: list[str] = []
    for target in links_of(path):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external; CI does not depend on the network
        base, _, fragment = target.partition("#")
        resolved = (path.parent / base).resolve() if base else path
        if not str(resolved).startswith(str(REPO_ROOT)):
            continue  # GitHub-UI relative URL (e.g. ../../actions/...): not a file
        if not resolved.exists():
            broken.append(f"{target} -> missing file {resolved}")
            continue
        if fragment and resolved.suffix == ".md" and fragment not in anchors_of(resolved):
            broken.append(f"{target} -> no heading for anchor #{fragment}")
    assert not broken, f"broken links in {path.relative_to(REPO_ROOT)}:\n" + "\n".join(broken)


def test_docs_tree_is_complete():
    """The canonical pages the README advertises must exist."""
    for name in (
        "architecture.md",
        "operators.md",
        "acquisition.md",
        "quality.md",
        "enumeration.md",
        "persistence.md",
        "api.md",
        "server.md",
    ):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} is missing"


def extract_first_python_block(path: Path) -> str:
    match = re.search(r"```python\n(.*?)```", path.read_text(encoding="utf-8"), re.DOTALL)
    assert match, f"{path} has no ```python code block"
    return match.group(1)


def test_api_quickstart_executes():
    """The docs/api.md quickstart is executable documentation."""
    code = extract_first_python_block(REPO_ROOT / "docs" / "api.md")
    namespace: dict[str, object] = {"__name__": "docs_api_quickstart"}
    exec(compile(code, "docs/api.md::quickstart", "exec"), namespace)  # noqa: S102


def test_readme_quickstart_executes():
    """The README quickstart must stay runnable too (prints aside)."""
    code = extract_first_python_block(REPO_ROOT / "README.md")
    namespace: dict[str, object] = {"__name__": "readme_quickstart"}
    exec(compile(code, "README.md::quickstart", "exec"), namespace)  # noqa: S102


@pytest.mark.parametrize(
    "script", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda path: path.name
)
def test_example_executes(script: Path):
    """Every ``examples/*.py`` script exits 0, run as ``python examples/<name>.py``.

    Several examples assert their own punchline (e.g. served_database.py:
    the second tenant's repeat of a crowd query costs zero additional
    platform calls), so executing them is the regression test for what
    the docs pages walk through.  Each runs in its own interpreter, as a
    reader runs it: a leaked thread, a ``sys.exit`` code or a dependency
    on the test process's imports fails it.
    """
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-4000:]
