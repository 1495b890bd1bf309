"""mirrorsim: simulation and analysis toolkit for current-mirror circuits
with resistive and memristive loads.

The package is layered bottom-up:

* :mod:`mirrorsim.devices` — closed-form device laws (memristor, square-law
  MOSFET, resistor, sources) and their parameter records.
* :mod:`mirrorsim.netlist` — netlist dialect: parse, print, elaborate to a
  :class:`~mirrorsim.netlist.Circuit`; built-in mirror configurations.
* :mod:`mirrorsim.engine` — nodal analysis: Newton DC solves; transients
  with memristor state, fixed-grid backward Euler or error-controlled,
  variable-order BDF.
* :mod:`mirrorsim.analysis` — measurements over the engine: distortion,
  switching time, mismatch/temperature/parameter sweeps, hysteresis loops,
  power/area reports, mobility calibration.
* :mod:`mirrorsim.cli` — the ``mirrorsim`` command.
"""

from .analysis import (
    AnalysisError,
    AnalysisReport,
    ConfigReport,
    HysteresisTrace,
    MismatchRow,
    MismatchTable,
    NotSettledError,
    ParameterRow,
    SettledResult,
    TemperatureRow,
    ThdResult,
    calibrate_mobility,
    compute_thd,
    config_report,
    distortion_trace,
    hysteresis_trace,
    mismatch_sweep,
    parameter_sweep,
    power_and_area,
    settled_transient,
    switching_time,
    table1_report,
    temperature_sweep,
)
from .constants import T_REF, ZERO_CELSIUS
from .devices import (
    CALIBRATED_MOBILITY,
    DeviceError,
    MEMRISTOR_DEFAULTS,
    MemristorParams,
    MemristorState,
    MosfetParams,
    NMOS_DEFAULTS,
    PMOS_DEFAULTS,
    RESISTOR_DEFAULTS,
    ResistorParams,
    SourceSpec,
)
from .engine import (
    NonConvergenceError,
    OperatingPoint,
    SimOptions,
    SimulationError,
    SingularMatrixError,
    TransientResult,
    UnknownProbeError,
    Waveform,
    run_transient,
    solve_dc,
)
from .netlist import (
    Circuit,
    ElaborationError,
    MirrorConfig,
    MirrorKind,
    NetlistError,
    ParseError,
    builtin_mirror,
    elaborate,
    mirror_circuit,
    parse,
    parse_value,
    print_netlist,
    with_override,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # devices
    "DeviceError",
    "MemristorParams",
    "MemristorState",
    "MosfetParams",
    "ResistorParams",
    "SourceSpec",
    "MEMRISTOR_DEFAULTS",
    "NMOS_DEFAULTS",
    "PMOS_DEFAULTS",
    "RESISTOR_DEFAULTS",
    "CALIBRATED_MOBILITY",
    "T_REF",
    "ZERO_CELSIUS",
    # netlist
    "NetlistError",
    "ParseError",
    "ElaborationError",
    "Circuit",
    "MirrorConfig",
    "MirrorKind",
    "parse",
    "parse_value",
    "print_netlist",
    "elaborate",
    "builtin_mirror",
    "mirror_circuit",
    "with_override",
    # engine
    "SimulationError",
    "SingularMatrixError",
    "NonConvergenceError",
    "UnknownProbeError",
    "SimOptions",
    "OperatingPoint",
    "Waveform",
    "TransientResult",
    "solve_dc",
    "run_transient",
    # analysis
    "AnalysisError",
    "NotSettledError",
    "ThdResult",
    "SettledResult",
    "MismatchRow",
    "MismatchTable",
    "TemperatureRow",
    "ParameterRow",
    "HysteresisTrace",
    "ConfigReport",
    "AnalysisReport",
    "compute_thd",
    "switching_time",
    "settled_transient",
    "mismatch_sweep",
    "temperature_sweep",
    "parameter_sweep",
    "hysteresis_trace",
    "power_and_area",
    "distortion_trace",
    "config_report",
    "table1_report",
    "calibrate_mobility",
]
