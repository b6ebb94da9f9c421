"""Regenerate the stored references of optimize_dense and sweep_band.

    python3 perfbench/capture_refs.py

Runs every dense variant and every sweep command of the pool once with the
checkout's code and writes data/refs_optimize_dense.json and
data/refs_sweep_band.npz.  The committed references were captured at the
commit that introduced the benchmark; rerun this only when the benchmark's
inputs change, never to make a failing check pass.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run


def main() -> int:
    run.use_checkout_source()
    from readout_opt import cli

    import workloads

    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        work, out = Path(tmp) / "inputs", Path(tmp) / "out"

        def execute(cmd) -> None:
            shutil.rmtree(out, ignore_errors=True)
            with run.quiet():
                code = cli.main([*cmd.argv, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{cmd.argv[0]} {cmd.ref} exited with {code}")

        dense = workloads.OptimizeDense(work)
        refs = {}
        for v in range(dense.VARIANTS):
            cmd = dense.command(v)
            execute(cmd)
            refs[cmd.ref] = dense.parse(out)
        workloads.REFS_DENSE.write_text(json.dumps(refs, indent=1) + "\n")

        sweep = workloads.SweepBand(work)
        arrays = {}
        for cmd in sweep.pool:
            execute(cmd)
            columns, rows, traj = sweep.parse(out)
            arrays[f"rows/{cmd.ref}"] = rows
            arrays[f"trajectory_end/{cmd.ref}"] = traj[-1]
        np.savez_compressed(workloads.REFS_SWEEP, columns=np.array(columns), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
