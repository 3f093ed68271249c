"""Set-up probe: import sfspectrum from the checkout and parse the given files.

``run.py`` times several fresh processes of this script and reports the
median as ``setup_s``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sfspectrum import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.parse_system(path)
