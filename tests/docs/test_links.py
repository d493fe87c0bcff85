"""The docs site stays navigable: tools/check_docs.py runs in tier 1.

CI's ``docs`` job runs the checker standalone; this wrapper makes a
broken link or unparseable fenced example fail the ordinary test run
too, so doc rot is caught before a PR ever reaches CI.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_cover_readme_and_every_docs_page():
    pages = {p.name for p in check_docs.doc_pages()}
    assert "README.md" in pages
    on_disk = {p.name for p in (REPO_ROOT / "docs").glob("*.md")}
    assert on_disk <= pages, "every docs/*.md page must be checked"
    assert "index.md" in pages, "the docs site needs its index page"


def test_all_links_anchors_and_examples_check_clean(capsys):
    assert check_docs.main() == 0, capsys.readouterr().err


def test_checker_catches_a_broken_link(tmp_path, monkeypatch):
    """The checker itself must not be a silent no-op."""
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        "# Title\n\nSee [missing](docs/nope.md) and [bad](#no-such-heading).\n"
        "`repro.matching.plan.execute_over_pools` resolves; "
        "`repro.matching.no_such_module` does not.\n"
    )
    (docs / "page.md").write_text(
        "# Page\n\nBad block:\n\n```json\n{not json}\n```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    problems = []
    cache = {}
    for page in check_docs.doc_pages():
        problems.extend(check_docs.check_page(page, cache))
    assert len(problems) == 4
    assert any("broken link" in p for p in problems)
    assert any("no_such_module" in p for p in problems)
    assert any("in-page anchor" in p for p in problems)
    assert any("does not parse" in p for p in problems)


def test_github_slugs():
    slug = check_docs.github_slug
    assert slug("8. Versioning") == "8-versioning"
    assert slug("The `PoolView` layer") == "the-poolview-layer"
    assert slug("Errors and goodbye") == "errors-and-goodbye"
