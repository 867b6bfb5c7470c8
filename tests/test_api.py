"""The package's public names."""

import weakdetect
from weakdetect import circuit, pointer, protocol, states

PUBLIC = {
    "PureAmplitudes", "TwoQubitState", "Verdict", "bell_phi_plus", "det_ptb_expansion",
    "ppt_oracle", "random_mixed", "random_pure", "trace_distance", "validate", "werner",
    "DetectionReport", "detect", "detect_pure_local", "__version__",
}

# One-state twins of the batch functions, functions only the tests called,
# the pointer layer's wrappers and grid helpers, the second gather of the
# post-selection record and the outcome tables that ELEMENT_OUTCOME
# replaced; the references and test helpers among them live in conftest
# and test_pointer.
REMOVED = {
    protocol: ("WeakValueSet", "weak_values_all", "diagonals_from_postselection", "reconstruct",
               "build_hamiltonian", "build_local_hamiltonian", "exact_weak_value",
               "joint_entries", "OUTCOME_RATIO_INDEX", "INFORMATIVE_OUTCOMES", "_FIRST_OUTCOME",
               "_measuring"),
    states: ("det_ptb", "partial_transpose_b", "negativity", "entanglement_estimate",
             "amplitudes_to_json_dict"),
    circuit: ("format_circuit", "CircuitSpec"),
    pointer: ("PointerWave", "default_grid", "_overlap_table", "joint_entries", "WeakReadout",
              "readout_weak_value", "gaussian_pointer", "translate"),
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
