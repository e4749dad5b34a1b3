import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import g2kit
from g2kit import standard_structure


@pytest.fixture(scope="session")
def s():
    return standard_structure()


@pytest.fixture(scope="session")
def sf():
    return standard_structure("float")


@pytest.fixture
def rng():
    # fixed seed: failures must reproduce
    return random.Random(20260819)


@pytest.fixture(scope="session")
def fresh_python():
    """Run a script in a new interpreter that imports this g2kit; fail on a nonzero exit.

    For what a cold start loads: this process has long since imported numpy."""
    src = str(Path(g2kit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    def run(script: str):
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    return run
