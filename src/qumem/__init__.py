"""qumem: photonic quantum memristor simulator.

Device equations and output states, closed-loop hysteresis dynamics,
a memristor-based quantum reservoir computer with a trainable linear
readout, and maximum-likelihood tomography of the device output.
"""

__version__ = "0.1.0"

from . import fock, hysteresis, memristor, readout, reservoir, tomography
from .fock import (
    ModeUnitary,
    OccupationBasis,
    QuantumState,
    apply,
    enumerate_basis,
    enumerate_basis_upto,
    fidelity,
    lift_unitary,
    partial_trace,
    purity,
)
from .memristor import (
    ClassicalMemristorState,
    LeakyCoupler,
    MemristorState,
    QubitInput,
    classical_memristor_step,
    dual_rail_purity,
    estimate_n_in,
    leaky_output_expectation,
    mz_reflectivity,
    output_expectation,
    output_state_dual_rail,
    output_state_single_rail,
    purity_closed_form,
)
from .hysteresis import (
    DetectionConfig,
    DriveConfig,
    Trace,
    classify_regime,
    run_closed_loop,
    run_lpf_loop,
)
from .reservoir import (
    EncodedInput,
    Reservoir,
    ReservoirConfig,
    amplitude_encode,
    build_mesh,
    coherent_encode,
    sample_entangled,
    sample_separable,
)
from .readout import (
    ReadoutModel,
    build_entanglement_dataset,
    columns_as_sequence,
    forward,
    load_mnist,
    read_features_csv,
    standardize,
    to_readout_features,
    train,
    write_features_csv,
)
from .tomography import (
    ReconstructionReport,
    fit_global_phase,
    mle_reconstruct,
    simulate_counts,
    table_fixtures,
)
