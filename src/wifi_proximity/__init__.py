"""Inferring physical proximity between people from overlapping WiFi scans.

Phones that sit close together see similar sets of access points with
similar signal strengths. This package turns raw per-phone WiFi scan logs
into labeled candidate pairs (Bluetooth co-sightings supply the labels),
computes 16 pairwise features, trains from-scratch tree ensembles and
per-feature threshold baselines, and evaluates them; a deterministic
synthetic world generator provides data at desk scale.
"""

__version__ = "0.1.0"
