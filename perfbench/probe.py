"""Set-up probe for one workload, run in a fresh interpreter.

Imports g2kit, builds the structures the workload uses, and prints the
monotonic clock at the moment its first op could start.  The parent takes
set-up time as that reading minus the clock when it spawned this process.

Usage: python3 perfbench/probe.py <workload>
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (needs src/ on the path first)

workloads.make(sys.argv[1]).setup()
print(repr(time.monotonic()))
