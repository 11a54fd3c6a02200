"""Perfect-state-transfer chains: design, certification, simulation, and the
protocols built on top of them."""

__version__ = "0.1.0"

from .chain import (ChainFormatError, ChainSpec, HeisenbergSpec, MirrorReport, chain,
                    heisenberg_to_h1, mirror_symmetry_check, read_chain, rescale,
                    uniform_chain, write_chain)
from .spectral import (DegenerateSpectrumError, SpectralDecomposition,
                       amplitude_profile, diagonalize, gamma, is_degenerate,
                       propagate)
from .certify import (OptimalityReport, PstCertificate, RateReport, certify_pst,
                      end_weights, optimality_report, rate_condition,
                      require_perfect, revival_rate_report, timing_window)
from .design import (DesignError, NewtonResult, ParametrizedFamily,
                     ReconstructionError, TargetSpectrum, analytic_chain,
                     chain_from_spectrum, coupling_family, near_uniform_chain,
                     newton_iep, nnn_coupling_family, sequential_storage_chain,
                     target_spectrum, validate_family)
from .fermionic import (BogoliubovModes, QuadraticFermionHamiltonian, SlaterState,
                        basis_slater, bell_fidelity_curve, bogoliubov_modes,
                        entanglement_distribution_sim, entanglement_generation,
                        evolve_slater, initfree_transfer, ising_from_pst,
                        sequential_storage_sim, slater_state, sort_to_site_order,
                        two_boson_transfer)
from .noise import BathSpec, bath_model, bath_transfer_amplitude, dephasing_avg_fidelity
from .networks import (AmplifierResult, ClockProgram, NetworkSpec, amplifier_sim,
                       clock_computer, hypercube, network_operator, product_network,
                       star_network, theta_entangler, w_phase_rotation)
