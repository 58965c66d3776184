"""Finite-dimensional quantum measurement toolkit.

Effects, observables, operations, instruments, and measurement models on
dense complex matrices, with combinators (sequential products, conditioning,
mixtures, post-processing), coexistence and complementarity checks, unitary
dilations, and a verification suite that re-derives the package's catalog of
identities and counterexamples on concrete matrices.
"""

import importlib

from .effects import (
    CoexistenceWitness,
    atom,
    binary_observables_from_coexistence,
    check_coexistence_witness,
    complement,
    conditioned_partial_state,
    ensure_effect,
    ensure_partial_state,
    ensure_state,
    find_coexistence_witness,
    occurrence_probability,
    seq_product,
)
from .errors import (
    DimensionError,
    DocumentError,
    EigenSolverError,
    InvalidWitness,
    InvariantViolation,
    KindError,
    LabelError,
    NotComplete,
    NotCommutative,
    NotHermitian,
    NotIsometry,
    NotNormal,
    NotPositiveSemidefinite,
    QinstrError,
    ShapeError,
    WeightError,
    ZeroVector,
)
from .instruments import (
    Instrument,
    Operation,
    compose_operations,
    ensure_channel,
    induced_observable,
    identity_instrument,
    instr_channel,
    instr_coexist_verify,
    instr_complementary,
    instr_conditioned,
    instr_convex_combo,
    instr_post_process,
    instr_product,
    instruments_close,
    is_identity_instrument,
    is_single_kraus,
    joint_probability_instr,
    joint_probability_table_instr,
    kraus_instrument,
    kraus_instrument_from_channel,
    luders_instrument,
    op_apply,
    operations_close,
    trivial_instrument,
)
from .linalg import (
    complete_to_unitary,
    herm_eig,
    herm_sqrt,
    matrices_close,
    partial_trace_first,
    partial_trace_second,
    tensor_product,
)
from .models import (
    FIMM,
    VonNeumannModel,
    dilate_instrument,
    luders_positivity_check,
    marginal_instruments,
    model_instrument,
    normal_fimm_kraus_extract,
    simultaneous_fimms,
    swap_unitary,
    trivial_fimm,
    vn_measured,
    vn_model_for_commutative,
    von_neumann_unitary,
)
from .observables import (
    Observable,
    ObservableFlags,
    StochasticMatrix,
    atomic_observable,
    classify_observable,
    find_joint_observable,
    fourier_mub,
    identity_observable,
    joint_probability_table,
    joint_probability_then,
    obs_coexist_verify,
    obs_commute,
    obs_complementary,
    obs_conditioned,
    obs_convex_combo,
    obs_effect_of_subset,
    obs_post_process,
    obs_seq_product,
    obs_triple_joint,
    observables_close,
)

__version__ = "0.1.0"

# The verification catalog and the JSON document layer are imported on first
# use: a process that never verifies (every CLI command but ``qinstr verify``)
# does not load the catalog, and ``qinstr verify`` does not load the documents.
_LAZY = {
    **dict.fromkeys(("VerificationReport", "run_suite", "run_suites"), "verify"),
    **dict.fromkeys(("Document", "load_document", "save_document"), "serialize"),
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
