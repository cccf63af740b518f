"""Names shared by the benchmark's scripts; standard library only, so that
``run.py`` can use them without importing sumsetlab."""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("dense_kfold", "suite_full", "certify_sweep")
