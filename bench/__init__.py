"""Benchmark for ``mpcodes``: seeded workloads, answer checks and tracing.

Run one workload with ``python3 -m bench --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, or every workload (each in its own
process) with ``--workload all``.  See ``bench/run.py`` for the output
format and ``bench/baseline.json`` for the recorded seed baseline and
the layer-to-end-to-end predictions.
"""
