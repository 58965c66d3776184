"""Benchmark harness for qinstr; run it with ``python3 perfbench/run.py``."""
