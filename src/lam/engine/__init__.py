"""Deterministic ML substrate: canonical data/model formats, seeded training,
inference, and the measured quantities that appear in attestation payloads.
The package exports nothing: import from its modules."""
