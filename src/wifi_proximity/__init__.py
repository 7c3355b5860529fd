"""Inferring physical proximity between people from overlapping WiFi scans.

Phones that sit close together see similar sets of access points with
similar signal strengths. This package turns raw per-phone WiFi scan logs
into labeled candidate pairs (Bluetooth co-sightings supply the labels),
computes 16 pairwise features, trains from-scratch tree ensembles and
per-feature threshold baselines, and evaluates them; a deterministic
synthetic world generator provides data at desk scale.

Every stage runs on one thread. Importing the package sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless they
are already set, so numpy's BLAS, loaded after this, starts no thread pool:
a pool spins on the small dot products of tree growing and pairing, which
doubles the CPU time without saving wall time. A process that imported
numpy before this package keeps the pool it started with.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
