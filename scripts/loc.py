#!/usr/bin/env python3
"""Counts the non-test code lines of the workspace crates.

The rule: every `crates/**/*.rs` file outside a `tests/` or `benches/`
directory, read up to its first `#[cfg(test)]` line, counting the lines
that are neither blank nor `//` comments (doc comments included).  Prints
the total, then one count per crate.

    python3 scripts/loc.py [REPO_ROOT]
"""

import sys
from collections import Counter
from pathlib import Path


def code_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.strip()
            if text.startswith("#[cfg(test)]"):
                break
            if text and not text.startswith("//"):
                count += 1
    return count


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    crates = root / "crates"
    per_crate = Counter()
    per_file = Counter()
    for path in sorted(crates.rglob("*.rs")):
        parts = path.relative_to(crates).parts
        if "tests" in parts or "benches" in parts:
            continue
        count = code_lines(path)
        per_file[path.relative_to(root).as_posix()] = count
        per_crate[parts[0]] += count
    print(f"total {sum(per_crate.values())}")
    for name, count in sorted(per_crate.items()):
        print(f"{name} {count}")
    print("largest files:")
    for name, count in per_file.most_common(5):
        print(f"  {count} {name}")


if __name__ == "__main__":
    main()
