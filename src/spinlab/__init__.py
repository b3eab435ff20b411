"""spinlab: symplectic analysis of spin-system commutation matrices over Z_p.

Computes kernels, ranks, and symplectic bases of alternating matrices
over GF(p); does exact arithmetic in the algebra of phased words
(phases are p^2-th roots of unity kept as integer exponents); builds
exact monomial-matrix representations, both the p^n tensor-ladder model
and the minimal p^r irreducible model with a prescribed standard
invariant; and classifies systems by enumerating the p^d invariant
classes of a GF(p) matrix with d-dimensional kernel.
"""

from ._version import __version__
from .errors import InvariantError, MatrixFormatError, SizeBoundError, SpinlabError
from .forms import (
    CommutationMatrix,
    SymplecticBasis,
    clifford_matrix,
    commutation_matrix,
    congruence_to_standard,
    extend_symplectic_basis,
    form_kernel,
    form_rank,
    matrix_from_basis,
    omega,
    q_form,
    random_alternating,
    standard_form,
    symplectic_basis,
    toeplitz_matrix,
)
from .reps import (
    MonomialMatrix,
    RelationReport,
    Representation,
    StructureReport,
    clock,
    commutant_dim,
    extract_invariant,
    irreducible_rep,
    is_scalar,
    matrix_units,
    mono_identity,
    mono_inverse,
    mono_mul,
    mono_pow,
    mono_scale,
    mono_tensor,
    phase_shift_rep,
    prop11_rep,
    shift,
    structure_report,
    to_dense,
    verify_relations,
    word_matrix,
)
from .words import (
    StandardInvariant,
    Word,
    commutation_phase,
    count_classes,
    enumerate_invariants,
    evaluate_invariant,
    gammas_equivalent,
    identity_word,
    invariant_square_check,
    is_central,
    normalize,
    phase_shift_invariant,
    realize_invariant,
    reference_invariant,
    word_mul,
    word_pow,
)

__all__ = [name for name in dir() if not name.startswith("_")]
