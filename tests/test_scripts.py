import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETTLE_RUNS = [f"seed={s} {c}" for s in (20240817, 20261017) for c in ("fast", "slow")]


@pytest.mark.parametrize(
    "mode, keys",
    [
        ("timing", ["m=40", "m=100", "m=160"]),
        ("complex-levels", ["fast", "slow"]),
        ("settle-levels", ["n", "k", "m", "trials"] + SETTLE_RUNS),
    ],
)
def test_burnin_profile_runs_on_this_tree(mode, keys):
    # A subprocess, because the script patches solver and harness attributes
    # for the rest of its process.
    script = os.path.join(ROOT, "scripts", "burnin_profile.py")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, script, os.path.join(ROOT, "src"), mode, "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out) == sorted(keys + ["OPENBLAS_NUM_THREADS"])
    assert out["OPENBLAS_NUM_THREADS"] == "1"
