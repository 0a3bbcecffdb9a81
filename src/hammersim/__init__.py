"""Deterministic study of memory-disturbance exposure in federated learning.

The package has two halves.  The analytic half turns a memory-bus model
and sparse-update geometry into per-refresh-window activation budgets
and feasibility verdicts.  The simulation half runs a desk-scale
federated loop against a learned input-space adversary, lays the
server's aggregation buffers out in a modeled DRAM module, and replays
the resulting access stream through an open-row engine with refresh,
target-row-refresh sampling and disturbance-flip bookkeeping.

Everything is seeded: equal seeds, configs and BLAS thread counts give
byte-identical outputs.
"""

__version__ = "0.1.0"
