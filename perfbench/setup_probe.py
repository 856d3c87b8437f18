"""Time duotherm's set-up in a fresh interpreter and print it in seconds.

    python3 setup_probe.py SRC_DIR SETUP_ID[,SETUP_ID...]|all

Set-up runs from before ``import duotherm`` (numpy is imported through it)
to the end of one warm-up point at (0.3, 0.7) on an evaluator of each setup.
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import duotherm  # noqa: E402

ids = duotherm.SETUP_IDS if sys.argv[2] == "all" else sys.argv[2].split(",")
for evaluator in [duotherm.make_setup(setup_id) for setup_id in ids]:
    duotherm.evaluate_bounds(evaluator, 0.3, 0.7)
print(repr(time.perf_counter() - start))
