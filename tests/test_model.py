import numpy as np
import pytest

from dysonprop.model import (
    ModelParseError,
    ModelValidationError,
    SpectralModel,
    emit_model,
    load_model,
    random_model,
    scale_coupling,
    two_level_model,
)


def test_two_level_shape():
    m = two_level_model(1.0, 0.25)
    assert m.dim == 2
    assert np.allclose(m.energies, [0.0, 1.0])
    assert m.h1[0, 1] == pytest.approx(0.25)
    assert m.h1[0, 0] == 0.0


def test_hermiticity_enforced():
    with pytest.raises(ModelValidationError):
        SpectralModel(np.array([0.0, 1.0]),
                      np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))


def test_near_hermitian_symmetrized():
    h = np.array([[0.0, 1.0 + 1e-15j], [1.0 - 1e-15j, 0.0]])
    m = SpectralModel(np.array([0.0, 1.0]), h)
    assert np.array_equal(m.h1, m.h1.conj().T)


def test_energies_must_be_finite_and_real():
    with pytest.raises(ModelValidationError):
        SpectralModel(np.array([0.0, np.inf]), np.zeros((2, 2)))


def test_arrays_read_only():
    m = two_level_model()
    with pytest.raises(ValueError):
        m.h1[0, 1] = 9.0


def test_roundtrip_through_text():
    m = random_model(4, seed=3, lam=0.7)
    m2 = load_model(emit_model(m))
    assert np.array_equal(m.energies, m2.energies)
    assert np.array_equal(m.h1, m2.h1)
    assert m.label == m2.label


def test_load_rejects_malformed():
    with pytest.raises(ModelParseError):
        load_model("{not json")
    with pytest.raises(ModelParseError):
        load_model('{"dim": 2, "energies": [0.0, 1.0]}')  # missing h1


def test_load_rejects_shape_mismatch():
    with pytest.raises(ModelValidationError):
        load_model('{"dim": 3, "energies": [0.0, 1.0], '
                   '"h1": [[[0,0],[1,0]],[[1,0],[0,0]]], "label": "x"}')


def test_load_rejects_boolean_dim():
    # JSON true is a Python bool, which is an int subclass
    with pytest.raises(ModelValidationError, match="dim must be a positive integer, got True"):
        load_model('{"dim": true, "energies": [0.0], "h1": [[[0.0, 0.0]]]}')


def test_load_rejects_h1_entry_with_three_numbers():
    text = ('{"dim": 2, "energies": [0.0, 1.0], '
            '"h1": [[[0.0, 0.0], [0.1, 0.0, 7.0]], [[0.1, 0.0], [0.0, 0.0]]]}')
    with pytest.raises(ModelParseError, match=r"h1 entries must be \[re, im\] pairs"):
        load_model(text)


def test_load_rejects_scalar_energies():
    with pytest.raises(ModelValidationError, match="energies must be a list, got 0.5"):
        load_model('{"dim": 1, "energies": 0.5, "h1": [[[0.0, 0.0]]]}')


def test_random_model_deterministic():
    a = random_model(5, seed=42)
    b = random_model(5, seed=42)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.h1, b.h1)


def test_random_model_nondegenerate():
    m = random_model(8, seed=1)
    assert m.nondegenerate
    assert m.min_gap >= 0.05 - 1e-12


def test_scale_coupling():
    m = two_level_model(1.0, 1.0)
    s = scale_coupling(m, 0.25)
    assert np.allclose(s.h1, 0.25 * m.h1)
    assert np.array_equal(s.energies, m.energies)


def test_coupling_scale_object():
    m = two_level_model(1.0, 1.0)
    assert scale_coupling(m, 0.5).h1[0, 1] == pytest.approx(0.5)
    assert not scale_coupling(m, 0.0).h1.any()
    for bad in (-0.5, float("nan")):
        with pytest.raises(ModelValidationError, match="coupling scale must be >= 0"):
            scale_coupling(m, bad)
