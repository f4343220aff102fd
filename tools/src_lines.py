"""Count the non-blank lines of src/ that are not whole-line `#` comments.

    python3 tools/src_lines.py [DIR]

Prints one line per .py file under DIR (default: src/ of this checkout),
sorted by path, then the total. Docstrings count as code.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    top = Path(argv[0]) if argv else ROOT / "src"
    total = 0
    for path in sorted(top.rglob("*.py")):
        n = count(path)
        total += n
        print(f"{n:6d}  {path.relative_to(top)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
