import os
import subprocess
import sys
from pathlib import Path

import gnmqsim


def test_every_export_resolves():
    # the benchmark's tracer calls getattr on every name in the export table
    for name in gnmqsim.__all__:
        assert getattr(gnmqsim, name) is not None, name


def test_importing_every_module_skips_the_heavy_scipy_subpackages():
    # each of these costs 0.1-0.25 s of every CLI run's start-up
    code = ("import sys, gnmqsim\n"
            "for m in gnmqsim._SUBMODULES: __import__('gnmqsim.' + m)\n"
            "print(' '.join(m for m in ('scipy.integrate', 'scipy.spatial', 'scipy.io')"
            " if m in sys.modules))")
    src = str(Path(gnmqsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.strip() == ""
