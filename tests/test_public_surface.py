"""The names `from circio import *` gives: exactly __all__, and every one
of them importable."""

from __future__ import annotations

import circio

PUBLIC_NAMES = {
    "BudgetExceeded", "CanonicalForm", "CircioError", "CirculantGraph",
    "Classification", "ConnectionSet", "DEFAULT_BUDGET", "DEFAULT_SCAN_BUDGET",
    "DegeneratePair", "GoldenReport", "GoldenRow", "Intractable", "InvalidIndex",
    "InvalidParams", "IsoVerdict", "NON_ISOMORPHIC", "NotAUnit", "OrderMismatch",
    "ProbeEntry", "ProbeReport", "ScanReport", "TYPE1", "TYPE2", "ThetaParams",
    "TupleRecord", "UNKNOWN", "WitnessMismatch", "ZeroJump", "adam_orbit",
    "adjacency_spectrum", "canonical_edges_of", "canonical_form", "classify_pair",
    "classify_tuple", "enumerate_family", "first_spectral_gap", "full_scan",
    "generate_a17c", "generate_c1", "is_adam_equivalent", "isomorphic",
    "load_golden_rows", "probe_open_problems", "reflexive_reduce", "theta_image",
    "theta_scan", "theta_vertex_map", "theta_witness", "valid_block_moduli",
    "verify_goldens", "verify_permutation", "worker_count",
}


def test_star_import_binds_exactly_the_public_names():
    # A name left in __all__ after its definition is gone makes this raise.
    namespace: dict = {}
    exec("from circio import *", namespace)
    assert len(circio.__all__) == len(PUBLIC_NAMES) == 52
    assert set(circio.__all__) == set(namespace) - {"__builtins__"} == PUBLIC_NAMES
