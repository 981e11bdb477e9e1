"""The repository benchmark: end-to-end and per-layer timing of EDA workloads.

Run one workload with::

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 15 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
