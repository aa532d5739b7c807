"""
Driving everything from a config file
=====================================

All solvers and validation reports are reachable from the command line:

    python -m urnsir simulate    --config run.ini --out out/ --seed 11
    python -m urnsir solve       --config run.ini --out out/
    python -m urnsir validate oracle --config run.ini --out out/ --seed 11

This script writes a config, invokes the same entry point in process,
and peeks at the files it produced, all in a temporary directory that is
removed when it ends.
"""

import tempfile
from pathlib import Path

from urnsir.cli import main

CONFIG = """\
[model]
N = 3
T = 1.0

[lambda]
form = separable
h1_form = affine
h1_values = 0.5, 1.0
h2_form = constant
h2_values = 1.2

[psi]
form = constant
values = 1.0

[phi]
form = constant
values = 0.5

[grid]
M = 16
dt = 0.001

[ensemble]
master_seed = 11
snapshot_times = 0.5, 1.0

[validate]
oracle_times = 0.5, 1.0
oracle_replicas = 20000
"""

with tempfile.TemporaryDirectory(prefix="urnsir_demo_") as tmp:
    root = Path(tmp)
    cfg = root / "run.ini"
    cfg.write_text(CONFIG)
    print(f"scratch directory: {root}\n")

    for argv in (
        ["simulate", "--config", str(cfg), "--out", str(root / "sim")],
        ["solve", "--config", str(cfg), "--out", str(root / "ode")],
        ["validate", "oracle", "--config", str(cfg),
         "--out", str(root / "check")],
    ):
        print(f"$ urnsir {' '.join(argv)}")
        code = main(argv)
        print(f"(exit {code})\n")

    print("files produced:")
    for path in sorted(root.rglob("*")):
        if path.is_file() and path != cfg:
            print(f"  {path.relative_to(root)}  ({path.stat().st_size} bytes)")

    print("\nfirst lines of the oracle validation CSV:")
    rows = (root / "check" / "validate_oracle.csv").read_text().splitlines()
    for line in rows[:5]:
        print(f"  {line}")

    # A failed threshold flips the exit code to 3 rather than hiding.
    strict = root / "strict.ini"
    strict.write_text(CONFIG + "oracle_alpha = 1.0\n")
    code = main(["validate", "oracle", "--config", str(strict),
                 "--out", str(root / "strict_out")])
    print(f"\nwith an impossible threshold the same run exits {code}")
