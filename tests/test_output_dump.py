"""The bytes every command prints, pinned by the sha256 of
scripts/output_dump.py.

A change that is meant to keep the output the same keeps this digest.
One that changes the output on purpose updates OUTPUT_SHA256 and says
what changed in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTPUT_SHA256 = "daf3f77496eb23251c20a51187960e796b4b862f9a00c25064311cbb34c2c346"


def test_output_dump_matches_the_pinned_digest():
    # run under this interpreter's -O, so the -O suite pins that output too
    flags = ["-O"] * sys.flags.optimize
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    dump = subprocess.run(
        [sys.executable, *flags, "scripts/output_dump.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
    ).stdout
    digest = hashlib.sha256(dump).hexdigest()
    assert digest == OUTPUT_SHA256, (
        f"scripts/output_dump.py printed {len(dump)} bytes with sha256 {digest}. "
        "Diff this dump against the parent commit's, made the same way from a "
        "checkout of it, to see what changed; a deliberate change updates "
        "OUTPUT_SHA256 and says so in CHANGES.md."
    )
