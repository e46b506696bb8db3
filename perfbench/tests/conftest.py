import sys
from pathlib import Path

# the benchmark's modules are scripts next to run.py, not a package, and
# the program under test is imported from the checkout's src/
BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
