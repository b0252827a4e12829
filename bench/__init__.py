"""End-to-end and per-layer benchmark of the JXTA reproduction.

Five named workloads, host and simulated metrics, a traced run that
attributes wall clock to the ``src/repro`` layers, and an A/A noise
gate.  ``BENCHMARK.json`` at the repository root declares it;
``bench/README.md`` explains every workload and metric.

Entry points::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m bench run | compare | noise
"""
