"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracer.py`` patches pipeline and service functions by
module attribute; deleting or renaming one breaks ``perfbench/run.py
--trace 1``.  The patches are process-global, so the installation runs
in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_install_service_patches_every_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    completed = subprocess.run(
        [
            sys.executable, "-c",
            "from tracer import Tracer, install_service\n"
            "install_service(Tracer())\n",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
