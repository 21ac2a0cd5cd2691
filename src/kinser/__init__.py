"""Exact computation with finite matroids and the Kinser inequality hierarchy."""

from .core import (AxiomResult, InvalidSubsetError, Matroid, MatroidError,
                   NotAMatroidError, SetClass, SizeCapError, content_fingerprint,
                   elements_of, mask_of, matroid_from_circuits,
                   validate_circuit_axioms, validate_rank_table)
from .catalog import (GainEdge, GainGraph, GroupTable, MatrixGFp, SetSystem,
                      binary_spike, cyclic_group, dowling, dowling_bias_rank_table,
                      dowling_gain_graph, fano_pair, from_matrix, kinser,
                      kinser_base, kinser_relaxed, spike_transversals,
                      transversal, uniform)
from .transforms import (contract, delete, direct_sum, dual, minor, relax,
                         tighten, truncate)
from .engine import (BadFamilyCertificate, Family, InequalityValue, SearchConfig,
                     TermReport, TermValue, Verdict, canonical_family,
                     corank_term_report, dual_membership, evaluate, extend_family,
                     family, membership, reduce_family, search_bad_family,
                     term_members)
from .fileio import (FormatError, StaleCertificateError, parse_certificate,
                     parse_matroid, verify_certificate, write_certificate,
                     write_matroid)

__version__ = "1.0.0"

__all__ = [
    "AxiomResult", "BadFamilyCertificate", "Family", "FormatError", "GainGraph",
    "GroupTable", "InequalityValue", "InvalidSubsetError", "Matroid",
    "MatroidError", "MatrixGFp", "NotAMatroidError", "SearchConfig", "SetClass",
    "SetSystem", "SizeCapError", "StaleCertificateError", "TermReport",
    "TermValue", "Verdict", "binary_spike", "canonical_family",
    "content_fingerprint", "contract", "corank_term_report", "cyclic_group",
    "delete", "direct_sum", "dowling", "dowling_bias_rank_table",
    "dowling_gain_graph", "GainEdge", "dual", "dual_membership", "elements_of",
    "evaluate", "extend_family", "family", "fano_pair", "from_matrix", "kinser",
    "kinser_base", "kinser_relaxed", "mask_of", "matroid_from_circuits",
    "membership", "minor", "parse_certificate", "parse_matroid", "reduce_family",
    "relax", "search_bad_family", "spike_transversals", "term_members",
    "tighten", "transversal", "truncate", "uniform",
    "validate_circuit_axioms", "validate_rank_table",
    "verify_certificate", "write_certificate", "write_matroid",
]
