"""Whole-model benchmark for toposcan; run it with ``python3 perfbench/run.py``."""
