"""What a fresh process pays before its first timed call.

Imports cgolay (and with it numpy) from the checkout's src directory and
builds a run configuration for the length given as the only argument.  The
benchmark times this whole process from outside, interpreter start-up
included, and reports the median over several probes as setup_s.
"""

import sys
from pathlib import Path

root = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(root / "src"))

from cgolay import encoding, pipeline, postprocess  # noqa: E402,F401

pipeline.RunConfig(n=int(sys.argv[1]), out_dir=root / ".perfbench" / "probe")
