"""A benchmark of the repro parsing services; see ``perfbench/run.py``."""
