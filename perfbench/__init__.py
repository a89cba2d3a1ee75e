"""Whole-run benchmark of the PM-octree reproduction.

``python3 perfbench/run.py --workload droplet|wave|restart|all`` runs one
seeded workload (or all three) through the public API, checks its outputs
and prints every metric with its unit and sample count.  See
``perfbench/README.md`` for the workloads, the metrics and the
layer -> metric -> workload map.
"""
