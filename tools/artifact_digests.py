"""Write the artifacts of every run and sweep preset and print their digests.

    python3 tools/artifact_digests.py OUT

runs `vesim run --preset fig3|fig4|fig5|fig9 --seed 0` with
`emit-plot-data` on each run, and `vesim sweep --preset fig6|fig10|fig11`,
from the `src` of the checkout this script lies in, into the directory
OUT, which must not exist yet. It prints one `sha256  path` line per file written, sorted by path
relative to OUT. Two checkouts write the same bytes exactly when
`diff` finds their outputs equal.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = ("fig3", "fig4", "fig5", "fig9")
SWEEPS = ("fig6", "fig10", "fig11")


def vesim(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "vesim.cli", *args], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def main(out: Path) -> None:
    out.mkdir(parents=True)  # no file of an earlier run is listed
    for name in RUNS:
        vesim("run", "--preset", name, "--seed", "0", "--out",
              str(out / name))
        vesim("emit-plot-data", str(out / name))
    for name in SWEEPS:
        vesim("sweep", "--preset", name, "--out", str(out / name))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]))
