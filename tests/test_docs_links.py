"""Docs stay truthful: links resolve and quoted thresholds match the code.

Runs `tools/check_doc_links.py` in-process (the CI docs job runs the same
script standalone), and pins the planner threshold values quoted in the
README's decision tables to the constants in `repro.core.plan` — the
tables say "the code wins"; this test makes sure they never need to.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py")
check_doc_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_links)


def test_intra_repo_markdown_links_resolve():
    errors = check_doc_links.check_all()
    assert not errors, "dead markdown links:\n" + "\n".join(errors)


def test_docs_pages_exist_and_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in ("architecture.md", "serving.md", "file-formats.md",
                 "operations.md"):
        assert (REPO_ROOT / "docs" / page).exists()
        assert f"docs/{page}" in readme, f"README does not link docs/{page}"


def _quoted_value(text: str, name: str) -> int:
    """The integer the README quotes for one named planner constant."""
    matches = re.findall(rf"`{name}`\s*=\s*(\d+)", text)
    assert matches, f"README does not quote a value for {name}"
    values = {int(v) for v in matches}
    assert len(values) == 1, f"README quotes conflicting values for {name}"
    return values.pop()


def test_readme_decision_tables_match_planner_constants():
    from repro.core import plan
    from repro.parallel import executor

    readme = (REPO_ROOT / "README.md").read_text()
    expected = {
        "HOST_MAX_PAIRS": plan.HOST_MAX_PAIRS,
        "WIDE_WORDS_PER_SET": plan.WIDE_WORDS_PER_SET,
        "PARALLEL_MIN_SETS": executor.PARALLEL_MIN_SETS,
        "BULK_BUILD_MIN_ELEMENTS": plan.BULK_BUILD_MIN_ELEMENTS,
        "PARALLEL_BUILD_MIN_SETS": plan.PARALLEL_BUILD_MIN_SETS,
        "PARALLEL_BUILD_MIN_ELEMENTS": plan.PARALLEL_BUILD_MIN_ELEMENTS,
    }
    for name, value in expected.items():
        assert _quoted_value(readme, name) == value, (
            f"README quotes a stale value for {name}; the planner says {value}")


def _readme_backend_rows(readme: str) -> list:
    """First-column names of the README's counting-backend table, in order."""
    section = readme.split("## Execution backends", 1)[1].split("\n### ", 1)[0]
    return re.findall(r"^\| `([a-z]+)`", section, re.MULTILINE)


def test_readme_backend_table_is_the_planner_vocabulary():
    """One counting vocabulary: the README table lists exactly the
    planner's backends, and ``repro mine --compute`` offers no other name."""
    from repro.cli import subcommand_parsers
    from repro.core import plan

    readme = (REPO_ROOT / "README.md").read_text()
    assert _readme_backend_rows(readme) == list(plan.BACKENDS)
    compute = next(action for action in subcommand_parsers()["mine"]._actions
                   if action.dest == "compute")
    assert set(compute.choices) <= {"auto", *plan.BACKENDS}


def test_experiments_entries_linked_from_readme_exist():
    """Every E-number the README references has a heading in EXPERIMENTS.md."""
    readme = (REPO_ROOT / "README.md").read_text()
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    referenced = set(re.findall(r"\[E(\d+)\]\(EXPERIMENTS\.md#", readme))
    assert referenced, "README no longer cross-links EXPERIMENTS.md entries"
    for number in sorted(referenced, key=int):
        assert re.search(rf"^## E{number} ", experiments, re.MULTILINE), (
            f"README references E{number} but EXPERIMENTS.md has no such entry")
