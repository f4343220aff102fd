"""Every demo runs, and every file it writes has the bytes recorded in
tests/demo_outputs.sha256.

The demos write next to themselves, so each runs from a copy in tmp_path.
To record new bytes after a deliberate output change, run the demos in an
empty directory DIR and then:

    cd DIR && find . -type f ! -name '*.py' -printf '%P\\n' | LC_ALL=C sort | xargs sha256sum
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("demo_outputs.sha256")


def written(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts}


def test_demos_write_the_recorded_bytes(tmp_path):
    demos = sorted((ROOT / "demos").glob("*.py"))
    for demo in demos:
        shutil.copy(demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in demos:
        proc = subprocess.run([sys.executable, demo.name], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}: {proc.stderr[-2000:]}"
    expected = {path: digest for digest, path in (line.split("  ", 1) for line in MANIFEST.read_text().splitlines())}
    got = written(tmp_path)
    differ = sorted(p for p in got.keys() | expected.keys() if got.get(p) != expected.get(p))
    assert not differ, f"{len(differ)} files differ from {MANIFEST.name}, e.g. {differ[:10]}"
