"""The package's public names."""

import weakdetect
from weakdetect import protocol, states

PUBLIC = {
    "PureAmplitudes", "TwoQubitState", "Verdict", "bell_phi_plus", "det_ptb_expansion",
    "ppt_oracle", "random_mixed", "random_pure", "trace_distance", "validate", "werner",
    "DetectionReport", "detect", "detect_pure_local", "__version__",
}

# One-state twins of the batch functions, and functions only the tests
# called; the references among them live in conftest.
REMOVED = {
    protocol: ("WeakValueSet", "weak_values_all", "diagonals_from_postselection", "reconstruct",
               "build_hamiltonian", "build_local_hamiltonian", "exact_weak_value"),
    states: ("det_ptb", "partial_transpose_b", "negativity", "entanglement_estimate"),
}


def test_all_is_pinned():
    assert len(weakdetect.__all__) == len(PUBLIC)
    assert set(weakdetect.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(weakdetect, name)


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(weakdetect, name), name
