import json

import numpy as np
import pytest

from mflq import (BUNDLED, ValidationError, apply_overrides, bundled_document,
                  bundled_problem, load_problem, parse_problem, problem_hash,
                  resolve_document, validate)


def test_all_bundled_parse_and_validate():
    for name in BUNDLED:
        p = bundled_problem(name)
        assert validate(p).passed, name


def test_unknown_bundled_name():
    with pytest.raises(ValidationError):
        bundled_document("nope")


def test_bundled_name_with_extension():
    assert bundled_document("ex12.json") == bundled_document("ex12")


def test_resolve_path_vs_name(tmp_path):
    doc = bundled_document("ex12")
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc))
    assert resolve_document(str(f)) == doc
    assert resolve_document("ex12") == doc


def test_load_problem_bad_json(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    with pytest.raises(ValidationError):
        load_problem(str(f))


class TestParse:
    def test_missing_fields(self):
        with pytest.raises(ValidationError):
            parse_problem({"n": 1})

    def test_missing_entry(self):
        doc = bundled_document("ex12")
        del doc["weights"]["G"]
        with pytest.raises(ValidationError, match="G"):
            parse_problem(doc)

    def test_bad_shape(self):
        doc = bundled_document("ex12")
        doc["coefficients"]["A"] = [[1.0, 2.0]]
        with pytest.raises(ValidationError, match="shape"):
            parse_problem(doc)

    def test_unknown_kind(self):
        doc = bundled_document("ex12")
        doc["weights"]["Q"] = {"kind": "mystery"}
        with pytest.raises(ValidationError, match="kind"):
            parse_problem(doc)

    def test_bad_dims(self):
        doc = bundled_document("ex12")
        doc["n"] = 0
        with pytest.raises(ValidationError):
            parse_problem(doc)

    def test_exp_discount_one_time_is_terminal_anchored(self):
        doc = bundled_document("discounting")
        p = parse_problem(doc)
        lam = doc["weights"]["G"]["lambda"]
        base = np.asarray(doc["weights"]["G"]["base"])
        np.testing.assert_allclose(p.G(p.T), base)
        np.testing.assert_allclose(p.G(0.0), np.exp(-lam * p.T) * base)

    def test_exp_discount_two_time_decays_in_lag(self):
        doc = bundled_document("discounting")
        p = parse_problem(doc)
        lam = doc["weights"]["Q"]["lambda"]
        base = np.asarray(doc["weights"]["Q"]["base"])
        np.testing.assert_allclose(p.Q(0.4, 0.4), base)
        np.testing.assert_allclose(p.Q(0.9, 0.4), np.exp(-lam * 0.5) * base)

    def test_polynomial_one_time_entry(self):
        doc = bundled_document("classical")
        c0 = [[0.1, 0.2], [0.0, -0.1]]
        c2 = [[1.0, 0.0], [0.5, -2.0]]
        doc["coefficients"]["A"] = {"kind": "polynomial",
                                    "coeffs": [c0, [[0.0, 0.0], [0.0, 0.0]], c2]}
        p = parse_problem(doc)
        ss = np.array([0.0, 0.3, 1.0])
        expected = [np.asarray(c0) + s * s * np.asarray(c2) for s in ss]
        for s, want in zip(ss, expected):
            np.testing.assert_allclose(p.A(s), want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(p.A.at_many(ss), expected, rtol=0, atol=1e-15)

    def test_polynomial_two_time_weight_rejected(self):
        doc = bundled_document("classical")
        doc["weights"]["Q"] = {"kind": "polynomial", "coeffs": [[[1.0, 0.0], [0.0, 1.0]]]}
        with pytest.raises(ValidationError, match="constant, exp_discount, samples"):
            parse_problem(doc)

    def test_lag_samples_interpolate(self):
        doc = bundled_document("discounting")
        p = parse_problem(doc)
        lags = np.asarray(doc["weights"]["Qbar"]["times"])
        vals = np.asarray(doc["weights"]["Qbar"]["values"])
        v0 = np.atleast_2d(vals[0]) if vals.ndim > 1 else np.array([[vals[0]]])
        np.testing.assert_allclose(p.Qbar(0.3, 0.3), v0)


class TestHash:
    def test_stable(self):
        a = problem_hash(bundled_document("ex12"))
        b = problem_hash(bundled_document("ex12"))
        assert a == b and len(a) == 64

    def test_key_order_irrelevant(self):
        doc = bundled_document("ex12")
        scrambled = json.loads(json.dumps(doc))
        assert problem_hash(doc) == problem_hash(scrambled)

    def test_content_sensitive(self):
        doc = bundled_document("ex12")
        other = apply_overrides(doc, ["T=2.0"])
        assert problem_hash(doc) != problem_hash(other)


class TestOverrides:
    def test_deep_copy(self):
        doc = bundled_document("ex12")
        out = apply_overrides(doc, ["weights.G=[[2.0]]"])
        assert out["weights"]["G"] == [[2.0]]
        assert doc["weights"]["G"] != [[2.0]]

    def test_parsed_as_json(self):
        out = apply_overrides({"a": {}}, ["a.b=1.5"])
        assert out["a"]["b"] == 1.5

    def test_malformed(self):
        with pytest.raises(ValidationError):
            apply_overrides({}, ["noequals"])
