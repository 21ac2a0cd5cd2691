"""Exact computation with finite matroids and the Kinser inequality hierarchy."""

from .core import (AxiomResult, InvalidSubsetError, Matroid, MatroidError,
                   NotAMatroidError, SetClass, SizeCapError, content_fingerprint,
                   elements_of, mask_of, matroid_from_circuits,
                   validate_circuit_axioms, validate_rank_table)
from .catalog import (MatrixGFp, SetSystem, binary_spike, dowling, fano_pair,
                      from_matrix, kinser, kinser_base, kinser_relaxed,
                      spike_transversals, transversal, uniform)
from .transforms import (contract, delete, direct_sum, dual, minor, relax,
                         tighten, truncate)
from .engine import (BadFamilyCertificate, Family, InequalityValue, SearchConfig,
                     TermValue, Verdict, canonical_family, evaluate, extend_family,
                     membership, term_members)
from .fileio import (FormatError, StaleCertificateError, parse_certificate,
                     parse_matroid, verify_certificate, write_certificate,
                     write_matroid)

__version__ = "1.0.0"

__all__ = [
    "AxiomResult", "BadFamilyCertificate", "Family", "FormatError",
    "InequalityValue", "InvalidSubsetError", "Matroid", "MatroidError",
    "MatrixGFp", "NotAMatroidError", "SearchConfig", "SetClass", "SetSystem",
    "SizeCapError", "StaleCertificateError", "TermValue", "Verdict",
    "binary_spike", "canonical_family", "content_fingerprint", "contract",
    "delete", "direct_sum", "dowling", "dual", "elements_of", "evaluate",
    "extend_family", "fano_pair", "from_matrix", "kinser", "kinser_base",
    "kinser_relaxed", "mask_of", "matroid_from_circuits", "membership",
    "minor", "parse_certificate", "parse_matroid", "relax",
    "spike_transversals", "term_members", "tighten", "transversal",
    "truncate", "uniform", "validate_circuit_axioms",
    "validate_rank_table", "verify_certificate", "write_certificate",
    "write_matroid",
]
