#!/usr/bin/env python
"""Keep the docs site honest: links resolve, examples parse.

Checks every Markdown page in the docs set (``README.md`` +
``docs/*.md``):

* **relative links** (``[text](path)`` / ``[text](path#anchor)``) must
  point at a file that exists in the repo, and a ``#anchor`` must match
  a heading in the target page (GitHub slug rules);
* **in-page anchors** (``[text](#anchor)``) must match a heading in the
  same page;
* **fenced ``json`` blocks** must be valid JSON — the serve protocol
  examples are additionally round-tripped through the real codec by
  ``tests/serve/test_protocol_doc.py``;
* **fenced ``python`` blocks** must compile;
* **code references** — every backticked dotted ``repro.…`` name in
  prose must resolve: the longest importable module prefix is
  imported and the rest looked up as attributes, so docs cannot name
  code that does not exist.

Exit code 0 when clean, 1 with one line per problem otherwise.  Run it
exactly as CI's ``docs`` job does::

    python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
IMAGE = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE = re.compile(r"^```(\w*)\s*$")
CODE_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)`")
EXTERNAL = ("http://", "https://", "mailto:")


def doc_pages() -> list[Path]:
    """The checked set: README.md plus every page under docs/."""
    return [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug: lowercase, spaces to hyphens,
    everything else non-alphanumeric dropped (inline code markers and
    link syntax stripped first)."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # [text](url) -> text
    text = text.replace("`", "").lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def split_markdown(source: str) -> tuple[list[str], list[tuple[str, int, str]]]:
    """Separate prose lines from fenced code blocks.

    Returns ``(prose_lines, blocks)`` where each block is
    ``(language, start_line, body)``; link/heading checks run on prose
    only, so example code cannot produce false link hits.
    """
    prose: list[str] = []
    blocks: list[tuple[str, int, str]] = []
    language = None
    body: list[str] = []
    start = 0
    for number, line in enumerate(source.splitlines(), start=1):
        fence = FENCE.match(line)
        if language is None:
            if fence and fence.group(1) is not None and line.startswith("```"):
                language = fence.group(1)
                body = []
                start = number
            else:
                prose.append(line)
        elif line.strip() == "```":
            blocks.append((language, start, "\n".join(body)))
            language = None
        else:
            body.append(line)
    return prose, blocks


def anchors_of(source: str) -> set[str]:
    """Every GitHub anchor the page's headings define (with the ``-1``
    suffixes duplicates get)."""
    prose, _ = split_markdown(source)
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    for line in prose:
        match = HEADING.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        anchors.add(slug if count == 0 else f"{slug}-{count}")
        seen[slug] = count + 1
    return anchors


def resolves(dotted: str) -> bool:
    """Whether a dotted ``repro.…`` name exists: import the longest
    module prefix, then look the rest up as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def check_page(page: Path, anchor_cache: dict[Path, set[str]]) -> list[str]:
    source = page.read_text()
    label = page.relative_to(REPO_ROOT)
    problems: list[str] = []
    prose, blocks = split_markdown(source)

    def anchors_for(target: Path) -> set[str]:
        if target not in anchor_cache:
            anchor_cache[target] = anchors_of(target.read_text())
        return anchor_cache[target]

    for number, line in enumerate(prose, start=1):
        for pattern in (LINK, IMAGE):
            for target in pattern.findall(line):
                if target.startswith(EXTERNAL):
                    continue
                path_part, _, fragment = target.partition("#")
                if not path_part:  # in-page anchor
                    if fragment not in anchors_for(page):
                        problems.append(
                            f"{label}: broken in-page anchor #{fragment}"
                        )
                    continue
                resolved = (page.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{label}: broken link {target}")
                    continue
                if fragment:
                    if resolved.suffix != ".md":
                        problems.append(
                            f"{label}: anchor on non-Markdown target {target}"
                        )
                    elif fragment not in anchors_for(resolved):
                        problems.append(
                            f"{label}: broken anchor {target}"
                        )
        for dotted in CODE_REFERENCE.findall(line):
            if not resolves(dotted):
                problems.append(f"{label}: `{dotted}` names no module or attribute")

    for language, start, body in blocks:
        if language == "json":
            try:
                json.loads(body)
            except ValueError as error:
                problems.append(
                    f"{label}:{start}: fenced json does not parse: {error}"
                )
        elif language == "python":
            try:
                compile(body, f"{label}:{start}", "exec")
            except SyntaxError as error:
                problems.append(
                    f"{label}:{start}: fenced python does not compile: {error.msg}"
                )
    return problems


def main() -> int:
    pages = doc_pages()
    anchor_cache: dict[Path, set[str]] = {}
    problems: list[str] = []
    for page in pages:
        problems.extend(check_page(page, anchor_cache))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(pages)} page(s): {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
