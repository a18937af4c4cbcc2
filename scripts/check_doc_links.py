#!/usr/bin/env python3
"""Fail on broken intra-repo links in the given markdown files.

Checks every inline markdown link whose target is not an external URL:

* relative file targets must exist on disk (resolved against the
  directory of the file containing the link);
* fragment targets (``#anchor`` or ``file.md#anchor``) must match a
  heading in the target file, using GitHub's slug rules (lowercase,
  punctuation stripped, spaces become hyphens, duplicates suffixed
  ``-1``, ``-2``, ...).

It also checks the prose pointers into the five manuals (README,
DESIGN, ARCHITECTURE, EXPERIMENTS, TESTING), in markdown files and in
the comments of Rust files:

* ``EXPERIMENTS.md § Title ...`` must start with the text of one of the
  target's headings, with or without its trailing parenthetical or
  its subtitle after a dash (``§5`` names a heading numbered ``5.``);
* ``DESIGN.md "Title"`` and ``DESIGN.md § "Title"`` must be the start of
  one of the target's headings.

Headings compare without backticks, case or repeated whitespace, and a
pointer may wrap across lines. A pointer whose section sign or quote
sits inside inline code is an example and is not checked.

Usage: scripts/check_doc_links.py README.md DESIGN.md ... crates
A directory argument stands for every ``.rs`` file under it.
Exits non-zero listing every broken link; prints a one-line summary
otherwise. No dependencies beyond the standard library.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
CODE_FENCE = re.compile(r"^\s*(```|~~~)")
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
ROOT = Path(__file__).resolve().parent.parent
POINTER = re.compile(
    r"(?<![\w/])(README|DESIGN|ARCHITECTURE|EXPERIMENTS|TESTING)\.md`?"
    r"(?:\s*§\s*\"([^\"]+)\"|\s+\"([^\"]+)\"|\s*§\s*(?=(\S.*)))"
)
RS_COMMENT = re.compile(r"^\s*//[/!]?\s?(.*)$")


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # strip inline code ticks
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # [t](u) -> t
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    seen = {}
    out = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING.match(line)
        if not m:
            continue
        slug = slugify(m.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        out.add(slug if n == 0 else f"{slug}-{n}")
    return out


def links_of(path: Path):
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK.finditer(line):
            yield lineno, m.group(1)


def norm(text: str) -> str:
    return " ".join(text.replace("`", "").lower().split())


def headings_of(path: Path) -> list:
    """Every heading of `path`, normalized, and again without a trailing
    parenthetical such as "(PR 37)" or a subtitle after " — "."""
    out = []
    for _, line in prose_of(path):
        m = HEADING.match(line or "")
        if m:
            h = norm(m.group(2))
            out += [h, re.sub(r"\s*\([^()]*\)$", "", h), h.split(" — ")[0]]
    return out


def prose_of(path: Path):
    """(line number, text) of the prose a pointer may sit in: markdown
    outside code fences, or the comments of a Rust file."""
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if path.suffix == ".rs":
            m = RS_COMMENT.match(line)
            yield lineno, (m.group(1) if m else None)
            continue
        if CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        yield lineno, (None if in_fence else line)


def pointers_of(path: Path):
    """Every prose pointer in `path` as (line number, manual, quoted
    title or None, the text after the section sign or None). Runs of
    prose lines are joined so that a pointer may wrap."""
    run = []  # (offset into the joined text, line number)
    text = ""

    def flush():
        for m in POINTER.finditer(text):
            head = m.group(0)
            sign = m.start() + min(i for i in (head.find("§"), head.find('"')) if i >= 0)
            if text.count("`", 0, sign) % 2:
                continue  # inside inline code: an example, not a pointer
            lineno = max(n for off, n in run if off <= m.start())
            yield lineno, m.group(1) + ".md", m.group(2) or m.group(3), m.group(4)

    for lineno, line in prose_of(path):
        if line is None or not line.strip():
            yield from flush()
            run, text = [], ""
            continue
        run.append((len(text), lineno))
        text += line.strip() + " "
    yield from flush()


def resolves(headings: list, quoted, rest) -> bool:
    if quoted is not None:
        return any(h.startswith(norm(quoted)) for h in headings)
    number = re.match(r"(\d+)\b", rest)
    if number:
        return any(h.startswith(number.group(1) + ".") for h in headings)
    rest = norm(rest)
    return any(
        rest.startswith(h) and (len(rest) == len(h) or not rest[len(h)].isalnum())
        for h in headings
    )


def expand(names):
    for name in names:
        path = Path(name)
        if path.is_dir():
            yield from sorted(path.rglob("*.rs"))
        else:
            yield path


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    anchor_cache = {}
    heading_cache = {}
    broken = []
    checked = 0
    pointers = 0
    files = list(expand(argv[1:]))
    for doc in files:
        if not doc.is_file():
            broken.append(f"{doc}: file not found")
            continue
        for lineno, manual, quoted, rest in pointers_of(doc):
            pointers += 1
            if manual not in heading_cache:
                heading_cache[manual] = headings_of(ROOT / manual)
            if not resolves(heading_cache[manual], quoted, rest):
                said = f'"{quoted}"' if quoted is not None else f"§ {rest[:60]}"
                broken.append(f"{doc}:{lineno}: no heading in {manual} for {said}")
        if doc.suffix == ".rs":
            continue
        for lineno, target in links_of(doc):
            if target.startswith(EXTERNAL):
                continue
            checked += 1
            file_part, _, frag = target.partition("#")
            dest = doc if not file_part else (doc.parent / file_part)
            if not dest.exists():
                broken.append(f"{doc}:{lineno}: missing target `{target}`")
                continue
            if frag:
                if not dest.is_file() or dest.suffix.lower() not in (".md", ".markdown"):
                    broken.append(
                        f"{doc}:{lineno}: fragment on non-markdown target `{target}`"
                    )
                    continue
                if dest not in anchor_cache:
                    anchor_cache[dest] = anchors_of(dest)
                if frag.lower() not in anchor_cache[dest]:
                    broken.append(f"{doc}:{lineno}: no heading for `{target}`")
    if broken:
        print(f"{len(broken)} broken link(s):", file=sys.stderr)
        for b in broken:
            print(f"  {b}", file=sys.stderr)
        return 1
    print(
        f"doc links ok: {checked} intra-repo links and {pointers} prose "
        f"pointers across {len(files)} files"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
