"""The scalar cost model lives in the tests alone: the package has one cost path."""
import pytest

import oracle
import readout_opt
from readout_opt import device, dynamics, error_models

MOVED = {
    device: ("FrequencyRangeError", "relaxation_rate"),
    dynamics: ("stark_trajectory", "max_photon", "residual_photon"),
    error_models: ("evaluate_cost", "_infeasible", "_snr_and_half_time", "snr",
                   "half_snr_time", "relaxation_error", "mist_penalty"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names])
def test_oracle_name_is_not_in_the_package(module, name):
    assert callable(getattr(oracle, name))
    assert not hasattr(module, name)
    assert not hasattr(readout_opt, name)
