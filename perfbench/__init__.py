"""The repository benchmark: see ``perfbench/run.py`` and ``BENCHMARK.json``."""
