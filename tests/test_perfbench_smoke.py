"""The benchmark's own correctness checks on one small workload.

``perfbench/run.py`` compares logits and descent-trace energies (to 1e-8) and
the tape gradient (to 1e-5) against an independent numpy/scipy model, so a
kernel rewrite that drifts from the paper's update fails here too.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_small_general_benchmark_run_is_correct():
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "small-general",
           "--seed", "1", "--seconds", "30", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    assert result["attempted"] > 0
