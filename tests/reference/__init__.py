"""References for lamdist's equational theory and derivation checker,
written apart from the library: a de Bruijn normalizer with its own
typing (``normalizer``), and the eleven rules read from their
documentation (``checker``).  The tests use them as oracles."""
