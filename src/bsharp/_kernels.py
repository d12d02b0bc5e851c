# Read only by perfbench/run.py, which records it as "kernel_backend"; this
# module goes in the next change to the benchmark.
BACKEND = "python"
