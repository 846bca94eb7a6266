"""The repository benchmark: end-to-end paper sweeps plus a traced per-layer
breakdown.  Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
