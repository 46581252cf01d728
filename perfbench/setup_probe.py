"""Time set-up in a fresh process: `import binnnms`, then load the CSV into a
Dataset with its packed view built. Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py DATA.csv   (with src/ on PYTHONPATH)
"""

import sys
from time import perf_counter

t0 = perf_counter()
import binnnms  # noqa: E402

data = binnnms.load_binary_csv(sys.argv[1], label_column=-1)
data.packed
print(perf_counter() - t0)
