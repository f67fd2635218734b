"""Print the seconds one fresh interpreter spends setting up a workload.

    python3 perfbench/setup_probe.py <workload>

`run.py` runs this several times per run and reports the median as
`setup_s`.
"""

import sys
import time

start = time.perf_counter()
import setups  # noqa: E402  (the clock starts before any import)

setups.build(sys.argv[1])
print(time.perf_counter() - start)
