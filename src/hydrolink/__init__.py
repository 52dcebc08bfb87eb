"""Deterministic simulator of an underwater optical communication link.

Synthesizes structured laser beams (Laguerre-Gauss and superposition
modes), propagates them through an absorbing, turbulent water channel,
senses the received wavefront with a Shack-Hartmann model feeding a Zernike
modal fit, and evaluates BB84 quantum-key-distribution feasibility for
polarization and spatial-mode encodings.
"""

# Bound before the submodule imports: runner imports it from here.
__version__ = "0.1.0"

from .channel import (AliasingError, ChannelConfig, ChannelResult, Launch,
                      Occluder, angular_spectrum_propagate, apply_occlusion,
                      apply_phase_screen, launch, run_channel, transmittance)
from .field import (ANTIDIAGONAL, DEFAULT_WAVELENGTH, DIAGONAL, HORIZONTAL,
                    VERTICAL, ComplexField, Grid, GridMismatchError,
                    JonesVector, centroid, lg_mode, mode_overlap, petal_mode,
                    superpose, total_power)
from .qkd import (DetectionMatrix, PolarizationBasis, PolarizationChannel,
                  QkdReport, bb84_key_rate, binary_entropy,
                  detection_matrix_oam, detection_matrix_polarization,
                  mub_overlap, qber_threshold, report_from_matrix)
from .scenario import (Scenario, ScenarioError, bundled_scenarios,
                       load_scenario, parse_scenario, schema_reference)
from .runner import RunResult, run_scenario, sweep
from .shack_hartmann import (LensletArray, ModalAverage, SlopeField,
                             SpotImage, WfsResult, average_magnitudes,
                             capture, extract_slopes, modal_fit,
                             reconstruct_wavefront)
from .zernike import (PhaseScreen, ZernikeIndex, ZernikeSpectrum,
                      index_from_nm, kolmogorov_screen, nm_from_index,
                      phase_from_spectrum, zernike_eval)
