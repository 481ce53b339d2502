"""Simulation, sampling, and decision toolkit for quantum 2-SAT measurement walks."""

__version__ = "0.1.0"

from .instance import (
    Clause,
    ClauseForm,
    Instance,
    Promise,
    classify_clause,
    clause_census,
    conjugate_instance,
    deserialize,
    generate_no_instance,
    generate_planted_extended,
    generate_planted_restricted,
    load_instance,
    make_clause,
    save_instance,
    serialize,
)
from .densesim import (
    basis_state,
    expectation,
    hermitian_eig,
    kron_embed,
    maximally_mixed,
    product_unitary,
)
from .observables import (
    SpectralData,
    build_hamiltonian,
    clause_projector,
    ground_space_projector,
    instance_spin_operators,
    spectral_data,
)
from .channel import (
    EvolutionSeries,
    apply_clause_channel,
    apply_step_channel,
    dual_residuals,
    evolve,
    write_series_csv,
)
from .trajectory import (
    EnsembleStats,
    TrajectoryRecord,
    haar_unitary,
    run_ensemble,
    run_trajectory,
    sample_initial_state,
    trajectory_step,
)
from .decision import (
    DecisionParams,
    Variant,
    Verdict,
    convergence_steps,
    decide,
    decision_params,
    expected_zero_count,
)
from .classical import CnfInstance, check_cnf, papadimitriou, parse_dimacs
