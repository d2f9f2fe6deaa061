"""Side -1 of a real model is the complex conjugate of side +1.

solve and sweep derive the second side of a real model from the first
(cli._prologue, RootSolution.conjugate, SpectrumClassification.conjugate,
rootsolver.conjugate_path) instead of solving and classifying it. These tests solve side -1 directly and require the
derivation to reproduce it bit for bit, on every model the benchmark runs
(the Friedrichs model, the test zoo and the wide-sweep models of seeds 1
and 2) and on the models at and near an exceptional point, for both
contour kinds.
"""

import dataclasses

import numpy as np
import pytest

import schurroots as sr
from schurroots.rootsolver import conjugate_path

from conftest import RECT_DEPTH, hard_models, wide_models

KINDS = (("semicircle", None), ("rectangle", RECT_DEPTH))
GRID = [k / 8 for k in range(1, 9)]


@pytest.fixture(scope="module")
def real_models(friedrichs_model, model_zoo):
    return [friedrichs_model] + list(model_zoo) + wide_models(1, 2)


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


def _assert_same_solution(direct, derived):
    assert _bits(direct.x) == _bits(derived.x)
    assert _bits(direct.z_op) == _bits(derived.z_op)
    assert _bits(direct.model.b.coefficients) == _bits(derived.model.b.coefficients)
    assert _bits(direct.contour.nodes) == _bits(derived.contour.nodes)
    for name in ("side", "coupling_scale", "report", "iterations",
                 "final_step_norm", "residual", "contour_fallbacks", "x_norm"):
        assert getattr(direct, name) == getattr(derived, name), name


def test_side_minus_one_is_the_conjugate(real_models):
    ep_models = [model for name, model in hard_models() if name.startswith("ep-")]
    for model in real_models + ep_models:
        assert model.is_real
        for kind, depth in KINDS:
            plus = sr.make_contour(model, 1, kind, depth)
            minus = sr.make_contour(model, -1, kind, depth)
            mirror = plus.mirror()
            assert _bits(minus.nodes) == _bits(mirror.nodes)
            assert _bits(minus.weights) == _bits(mirror.weights)
            for name in ("side", "kind", "depth", "endpoints", "counts"):
                assert getattr(minus, name) == getattr(mirror, name), name

            rep = sr.admissibility(model, plus)
            assert sr.admissibility(model, minus) == rep
            if not rep.admissible:
                # the Friedrichs model and the exceptional-point models on
                # the rectangle: both sides refuse
                continue

            sol = sr.solve_basic(model, plus)
            _assert_same_solution(sr.solve_basic(model, minus), sol.conjugate())
            assert (sr.classify(sol.conjugate())
                    == sr.classify(sol).conjugate())

            path = sr.homotopy_path(model, plus, GRID)
            direct = sr.homotopy_path(model, minus, GRID)
            derived = conjugate_path(path)
            assert len(direct) == len(derived) == len(GRID)
            for (t_d, sol_d, cls_d), (t_c, sol_c, cls_c) in zip(direct, derived):
                assert t_d == t_c
                _assert_same_solution(sol_d, sol_c)
                assert cls_d == cls_c


def test_is_real_reads_the_data(friedrichs_model):
    # the predicate looks at a1 and the coupling coefficients, so a model
    # with a complex coefficient (built around build_model's realness
    # check) is solved on each side instead of conjugated
    assert friedrichs_model.is_real
    complex_b = sr.MatrixPolynomial(np.array([[[0.2 + 0.1j]]]))
    model = sr.SpectralModel(friedrichs_model.interval, friedrichs_model.a1,
                             complex_b)
    assert not model.is_real
    sol = sr.solve_basic(friedrichs_model, sr.make_contour(friedrichs_model, 1))
    with pytest.raises(ValueError, match="real model"):
        conjugate_path([(1.0, dataclasses.replace(sol, model=model), None)])


def _replaced_conjugate(cls):
    """SpectrumClassification.conjugate as dataclasses.replace of each entry
    with its eigenvalue conjugated."""
    return sr.SpectrumClassification(tuple(
        dataclasses.replace(e, eigenvalue=e.eigenvalue.conjugate()) for e in cls.entries))


def test_conjugated_classification_matches_replaced_entries(real_models):
    # the entries built directly equal the replaced ones field by field,
    # to the bit and in type, with and without physical residuals
    clss = [sr.SpectrumClassification((
        sr.ClassifiedEigenvalue(0.5 - 0.0j, 2, "real", None),
        sr.ClassifiedEigenvalue(-0.0 + 1e-300j, 1, "resonance", None),
        sr.ClassifiedEigenvalue(0.1 - 0.2j, 1, "physical-complex", 3e-17)))]
    for model in real_models[:3] + real_models[-3:]:
        path = sr.homotopy_path(model, sr.make_contour(model, 1), GRID[-2:])
        clss += [cls for _, _, cls in path] + [sr.classify(path[-1][1])]
    for cls in clss:
        got, want = cls.conjugate(), _replaced_conjugate(cls)
        assert got == want
        for e, f in zip(got.entries, want.entries):
            assert [repr(getattr(e, k)) for k in vars(e)] == [repr(getattr(f, k)) for k in vars(f)]
            assert [type(getattr(e, k)) for k in vars(e)] == [type(getattr(f, k)) for k in vars(f)]
