"""Two-copy weak-value entanglement detection for two-qubit states."""

from .states import (
    PureAmplitudes,
    TwoQubitState,
    Verdict,
    bell_phi_plus,
    ppt_oracle,
    random_mixed,
    random_pure,
    trace_distance,
    validate,
    werner,
)
from .protocol import (
    DetectionReport,
    det_ptb_expansion,
    detect,
    detect_pure_local,
)

__version__ = "0.1.0"

__all__ = [
    "PureAmplitudes",
    "TwoQubitState",
    "Verdict",
    "bell_phi_plus",
    "det_ptb_expansion",
    "ppt_oracle",
    "random_mixed",
    "random_pure",
    "trace_distance",
    "validate",
    "werner",
    "DetectionReport",
    "detect",
    "detect_pure_local",
    "__version__",
]
