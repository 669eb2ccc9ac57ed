"""Make the benchmark's modules and the program importable in its tests.

    python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
