"""Contract tests for the public API surface.

Every name exported by ``__all__`` of ``repro`` and its public subpackages
must resolve, every recommender class must honour the shared interface,
and the version/docstring metadata must be present — the things a
downstream user touches first.
"""

import importlib
import inspect

import numpy as np
import pytest

import repro
from repro.core.base import Recommender


class TestExports:
    @pytest.mark.parametrize("module", ["repro", "repro.service",
                                        "repro.graph", "repro.core",
                                        "repro.solver"])
    def test_all_names_resolve(self, module):
        package = importlib.import_module(module)
        for name in package.__all__:
            assert hasattr(package, name), f"{module}.{name}"

    def test_version_present(self):
        assert repro.__version__.count(".") == 2

    def test_module_docstring_mentions_paper(self):
        assert "Long Tail" in repro.__doc__

    def test_exception_hierarchy_rooted(self):
        for name in ("ConfigError", "DataError", "GraphError", "NotFittedError",
                     "ConvergenceError", "DataFormatError",
                     "UnknownUserError", "UnknownItemError"):
            assert issubclass(getattr(repro, name), repro.ReproError)


ALL_RECOMMENDER_CLASSES = [
    obj for name in repro.__all__
    if inspect.isclass(obj := getattr(repro, name))
    and issubclass(obj, Recommender) and obj is not Recommender
]


class TestRecommenderContract:
    def test_roster_is_substantial(self):
        assert len(ALL_RECOMMENDER_CLASSES) >= 9

    @pytest.mark.parametrize("cls", ALL_RECOMMENDER_CLASSES,
                             ids=lambda c: c.__name__)
    def test_docstring_and_name(self, cls):
        assert cls.__doc__, cls
        assert cls.name != "recommender", cls

    @pytest.mark.parametrize("cls", ALL_RECOMMENDER_CLASSES,
                             ids=lambda c: c.__name__)
    def test_default_constructible_and_fittable(self, cls, small_synth):
        recommender = cls().fit(small_synth.dataset)
        out = recommender.recommend(0, k=3)
        assert isinstance(out, list)
        scores = recommender.score_items(0)
        assert scores.shape == (small_synth.dataset.n_items,)
        # Scores must never be NaN (use -inf for "cannot recommend").
        assert not np.isnan(scores).any()


class TestDocumentationFiles:
    @pytest.mark.parametrize("path", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_present_and_substantial(self, path):
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        full = os.path.join(root, path)
        assert os.path.exists(full), path
        with open(full) as handle:
            assert len(handle.read()) > 2000, path
