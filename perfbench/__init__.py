"""A benchmark of the repro stack: see run.py."""
