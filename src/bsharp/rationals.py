# Read only by perfbench/run.py, which records it as "rationals"; every
# rational is a fractions.Fraction.  This module goes in the next change to
# the benchmark.
BACKEND = "fractions"
