"""Checks that span every module of the package."""

import importlib
import pkgutil

import numpy as np
import pytest

import neurodissip
from neurodissip import dissipativity, dynamics, plants, pwa, structured, training
from neurodissip.network import Layer, MlpNetwork

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(neurodissip.__path__, "neurodissip."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks ``from module import *``.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []



def _network():
    return MlpNetwork(layers=(Layer(weight=0.5 * np.eye(2), activation="tanh"),))


def _dataset():
    return plants.benchmark_dataset("two_tank", samples=30)


# A builder of each record that holds an ndarray, by name.
RECORDS = {
    "PlantModel": lambda: plants.make_plant("cstr"),
    "PlantDataset": _dataset,
    "TrainingData": lambda: training.TrainingData.from_dataset(_dataset()),
    "Trajectory": lambda: dynamics.rollout(_network(), (1.0, 0.5), steps=5),
    "BasinMap": lambda: dynamics.basin_map(
        _network(), dissipativity.GridSpec(resolution=2), steps=5),
    "SpectraStudy": lambda: dynamics.depth_spectra(
        _network().layers[0], (1,), [[1.0, 0.5], [0.5, 1.0]])[0],
    "ConstrainedLayer": lambda: training.ConstrainedLayer(
        weight=structured.FreeWeight(np.eye(2)), bias=np.zeros(2)),
    "Verdicts": lambda: dissipativity.verdicts_at(_network(), [[1.0, 0.5]]),
    "GridAnalysis": lambda: dissipativity.certify_region(
        _network(), dissipativity.GridSpec(resolution=2)),
    "PwaForm": lambda: pwa.extract_pwa(_network(), (1.0, 0.5)),
    "Layer": lambda: _network().layers[0],
    "MlpNetwork": _network,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_array_records_compare_by_identity(name):
    # Field-wise == on an ndarray field raises "truth value ... ambiguous".
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert (record == record) is True
    assert (record == RECORDS[name]()) is False
