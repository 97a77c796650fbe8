"""Reference implementations the production code is checked against.

Each oracle is the paper's algorithm written the straightforward way: one
permutation, one graph-recording forward, one mini-batch prepared at a time.
The tests and the benchmarks under ``benchmarks/`` import them (the
benchmarks put ``tests/`` on ``sys.path``) and compare the optimised
pipelines in ``src/`` against them.
"""
