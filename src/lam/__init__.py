"""lam: prover/verifier toolkit for attested ML property cards.

Provers measure ML properties inside simulated enclaves and emit quoted
canonical-JSON fragments; verifiers validate quotes against certifications,
chain the fragments, and assemble verified model cards, datasheets, and
inference cards. The package exports nothing else: import from its modules.
"""

__version__ = "0.1.0"
