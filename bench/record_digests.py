"""Record the sha256 digests that the render workloads check against.

    python3 bench/record_digests.py

Renders every render-wide and render-zoom catalogue entry with the qrdyn
under `src/` and rewrites bench/digests.json.  The recorded digests pin
the current output; re-record only when a change to the PPM or stats
output is intended.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from qrdyn import cli  # noqa: E402

import workloads as W  # noqa: E402
from worker import render_argv  # noqa: E402


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    work = ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "render.ppm"
    table = {}
    try:
        for name, cat in (("render-wide", W.wide_catalogue()),
                          ("render-zoom", W.zoom_catalogue())):
            table[name] = {}
            for job in cat:
                if cli.main(render_argv(job, str(out))) != 0:
                    raise SystemExit(f"render failed for {W.render_key(job)}")
                table[name][W.render_key(job)] = [
                    digest(out), digest(out.with_name(out.name + ".json"))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print({k: len(v) for k, v in table.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
