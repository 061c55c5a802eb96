"""End-to-end and per-layer benchmark of the AdaVP reproduction.

``python -m bench run`` runs the workloads in :mod:`bench.workloads`, each
repetition in a fresh process; ``python -m bench compare`` judges one set
of runs against another.  ``BENCHMARK.json`` at the repository root
declares the workloads and metrics; ``bench/README.md`` explains them.
"""
