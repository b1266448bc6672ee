"""Sparse adaptive filtering with zero-attractor step-size control.

A sign-attracted LMS filter plus six kinds of controller for the attractor
step-size, and a seeded echo-cancellation simulation harness with
CSV/SVG output.
"""

from .channel import (Channel, ChannelFormatError, generate_dispersive,
                      generate_sparse, load_channel, save_channel)
from .cli import (ConfigError, canonical_config_text, emit_csv, emit_svg,
                  parse_config, parse_config_text)
from .filtercore import SAMPLE_DTYPE
from .harness import (AlgorithmAggregate, AlgorithmConfig, ChannelSpec,
                      RunTrace, ScenarioConfig, aggregate, build_schedule,
                      derive_stream_seeds, recovery_time, run_all)
from .signal import DesiredSignal, generate_input, synthesize_desired
from .stepsize import KINDS, controller_params

__version__ = "0.1.0"

__all__ = [
    "Channel", "ChannelFormatError", "generate_dispersive", "generate_sparse",
    "load_channel", "save_channel",
    "ConfigError", "canonical_config_text", "emit_csv", "emit_svg",
    "parse_config", "parse_config_text",
    "SAMPLE_DTYPE",
    "AlgorithmAggregate", "AlgorithmConfig", "ChannelSpec", "RunTrace",
    "ScenarioConfig", "aggregate", "build_schedule",
    "derive_stream_seeds", "recovery_time", "run_all",
    "DesiredSignal", "generate_input", "synthesize_desired",
    "KINDS", "controller_params",
]
