"""perfbench: the repo's benchmark (see ``perfbench/README.md``).

``python -m perfbench`` measures the system from outside, through its
public functions; nothing under ``src/`` knows this package exists.
"""
