"""nemsim: lumped-model NEMS switch and switched-capacitor amplifier simulator."""

from .device import (DeviceGeometry, DeviceParams, MaterialProps, Preset,
                     PRESETS, EPS0, c_off, c_on, compare_to_reference,
                     contact_gap_from_pullout, derive_geometry_constants,
                     get_preset, max_gain, pullin_voltage,
                     pullout_voltage_from_gap, spring_from_beam,
                     spring_from_pullin)
from .mech import (BeamState, CVCurve, DynamicsParams, TransientTrace,
                   capacitance_at, cv_sweep, force_charge_controlled,
                   force_voltage_controlled, static_equilibrium_charge,
                   static_equilibrium_voltage, transient)
from .scnet import (ClockSchedule, Clock, Dc, LinearCap, Network, NemsCap,
                    OhmicSwitch, OhmicSwitchState, Phase, PhaseSolution,
                    SimResult, Sine, VSource, apply_parasitics, build_network,
                    islands, simulate, solve_phase)
from .amp import (Amp, AmpConfig, GainReport, build_amp, dynamic_range,
                  gain_oracle, gain_sweep, parasitic_study, power_estimate,
                  run_dc, run_sine)
from .scenario import Scenario, parse_scenario

__version__ = "0.1.0"
