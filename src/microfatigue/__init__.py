"""Virtual beam-plate MEMS fatigue rig.

Lumped electrostatic pull-in physics, pull-in-monitored fatigue test
drivers, stair-case fatigue-limit estimation (Dixon-Mood) and Basquin
S-N fitting, behind a deterministic config/CSV/JSON command line.
"""

__version__ = "0.1.0"  # set before the submodules import it

from .damage import (DamageModelParams, DamageState, SpecimenStrength,
                     accumulate, cycles_to_failure, degraded_pull_in)
from .device import (Device, DeviceGeometry, DerivedMechanics, Material,
                     C_K_RESONANCE_PRESET, derive_mechanics, validate_geometry)
from .electromech import (EquilibriumPoint, PullInResult, electrostatic_force,
                          natural_frequency, pull_in_voltage_closed_form,
                          pull_in_voltage_sweep, static_equilibrium,
                          stress_conversion_curve)
from .errors import (CalibrationError, ConfigError, EstimationError,
                     MicrofatigueError, SolverError)
from .loading import (FatigueParameters, LoadCycleSpec, fatigue_parameters,
                      load_cycles_from_voltage_cycles, waveform)
from .protocols import (FatigueRunRecord, StairCaseSequence, StairCaseTrial,
                        build_population, calibrate_defaults, run_fatigue_test,
                        run_pull_in_detection, run_stair_case)
from .stats import (BasquinFit, StairCaseEstimate, WohlerPoint, dixon_mood,
                    estimator_recovery_trial, fit_basquin)
