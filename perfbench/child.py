"""`python -m g2kit` with the given arguments, reporting its own peak RSS.

The peak is the VmHWM of this process's address space, written as the last
line of stderr.  A child's ru_maxrss would instead include the memory of the
parent it was spawned from, which is larger than the child here.

Usage: python3 perfbench/child.py <g2kit arguments>
"""
import atexit
import runpy
import sys


def _report_peak():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write(f"\nvmhwm_kb {line.split()[1]}\n")


atexit.register(_report_peak)
sys.argv = ["g2kit", *sys.argv[1:]]
runpy.run_module("g2kit", run_name="__main__", alter_sys=True)
