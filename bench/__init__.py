"""Request-level benchmark: PsimC source in, verified results out.

``python3 -m bench`` from the repository root; see ``bench/README.md`` for
the workloads, the metrics and how the per-layer ledger is measured from
outside the library.
"""
