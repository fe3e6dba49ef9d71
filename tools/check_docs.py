#!/usr/bin/env python3
"""Markdown link and anchor checker for the repo docs.

Usage::

    python tools/check_docs.py README.md ARCHITECTURE.md EXPERIMENTS.md ROADMAP.md

For every ``[text](target)`` in the given files:

* relative file targets must exist on disk (resolved against the
  containing file's directory);
* ``#fragment`` targets — same-file or on a linked markdown file —
  must match a heading's GitHub-style anchor slug;
* ``http(s)``/``mailto`` targets are skipped (no network access here).

Exits non-zero listing every broken link.  CI's docs-drift job runs
this next to ``python -m repro report --quick --check``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: [text](target) — target captured without surrounding whitespace;
#: images (![alt](src)) are checked the same way.
_LINK = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)\s*\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
_CODE_FENCE = re.compile(r"^(```|~~~)")


def anchor_slug(heading: str) -> str:
    """GitHub's heading→anchor rule: lowercase, drop punctuation,
    spaces to hyphens (links like ``[x](#the-reporting-layer)``)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(path: Path) -> set[str]:
    """Every anchor a markdown file exposes (fenced code excluded)."""
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            anchors.add(anchor_slug(match.group(2)))
    return anchors


def iter_links(path: Path):
    """(target, line number) for every markdown link outside code."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            yield match.group(1), lineno


def check_file(path: Path) -> list[str]:
    problems = []
    for target, lineno in iter_links(path):
        where = f"{path}:{lineno}"
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
            continue
        target_path, _, fragment = target.partition("#")
        resolved = path if not target_path else (path.parent / target_path)
        if not resolved.exists():
            problems.append(f"{where}: broken link target {target_path!r}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in heading_anchors(resolved):
                problems.append(
                    f"{where}: no heading for anchor #{fragment} in {resolved}"
                )
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    problems: list[str] = []
    for name in argv:
        path = Path(name)
        if not path.is_file():
            problems.append(f"{name}: file not found")
            continue
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"docs ok: {len(argv)} files, links and anchors resolve")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
