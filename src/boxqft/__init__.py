"""boxqft: free relativistic quantum fields in a periodic box.

Simulates scalar, Dirac and electromagnetic fields on truncated Fock spaces
and verifies the structure of vacuum fluctuations for observables with
space-like spectra: thermal contour propagators and Wick contractions,
eigenstate spectral sums with their detailed-balance and suppression
properties, Lorentz tensor decompositions with positivity-forced zeros, and
counter-propagating (Sagnac-type) measurement statistics with a balanced
homodyne readout model.
"""

from .errors import (BoxQFTError, ConfigInvalid, DegenerateBasis,
                     DimensionMismatch, DimensionOverflow, MomentumMismatch,
                     OffLatticeMomentum, RequiresCanonicalFrame, UnknownMode,
                     ZeroMomentum)
from .spacetime import (CTPTime, FourVector, IntervalClass, boost,
                        boost_matrix, classify_interval, ctp_time,
                        minkowski_dot)
from .fock import (DensityOperator, FockSpace, ModeGrid, SagnacConfig,
                   SagnacSpecies, Species, StateVector, basis_state,
                   build_fock_space, expectation, free_hamiltonian,
                   sagnac_state, thermal_state, total_momentum, vacuum_state)
from .fields import (QuadraticObservable, current_matrices,
                     dirac_current_density, dirac_field, dirac_space_channels,
                     em_field_strength_density, photon_space_channels,
                     scalar_bilinear_density, scalar_density,
                     scalar_momentum_density, spinor_u, spinor_v,
                     stress_tensor_em, stress_tensor_scalar)
from .correlators import (CTPPropagator, Insertion, KeldyshPropagator,
                          OrderingScheme, exact_contour_correlator,
                          free_propagator, insertion,
                          keldysh_scalar_propagators, ordering_average,
                          three_point_combination, wick_npoint)
from .spectral import (NoiseExponentFit, SpectralSample, SpectrumDescriptor,
                       fdt_ratio, lehmann_spectral_density,
                       massless_current_spectrum, noise_exponent_fit,
                       signal_vs_noise_curve, suppression_slope,
                       windowed_noise)
from .tensors import (boost_tensor, canonical_boost, decompose_antisymmetric,
                      decompose_symmetric, decompose_vector,
                      noiseless_components, project_noiseless_tensor,
                      project_noiseless_vector)
from .measurement import (HomodyneConfig, MeasurementWindow, MomentsResult,
                          commensurate_tau, homodyne_difference,
                          localization_effect, moments, photon_signal,
                          sagnac_regression, spacelike_windowed_observable,
                          vacuum_variance, windowed_observable)

__version__ = "0.1.0"
