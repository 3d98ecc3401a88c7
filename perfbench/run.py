"""Run one benchmark workload from the repository root.

    python3 perfbench/run.py --workload mine|train|explain --seed N \
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md``.
"""

import os
import sys

# One numeric-library thread and the package's default worker setting, fixed
# before numpy is imported: the benchmark is a single process on purpose.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CLIFFKIT_THREADS", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "cliffkit", "__init__.py")):
        print(f"perfbench: no cliffkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.bench import main

    sys.exit(main(sys.argv[1:], ROOT))
