"""One acceptance rule for float configurations at any scale.

forms.check_identity accepts a float configuration when every entry of
W^T Q W - T is within tol, or else when every entry of it and of the
transposed form W T^{-1} W^T - Q^{-1} is within the rounding of its own
terms.  Closure: every float configuration the package emits is read back
and converted.  Refusal: a single entry moved by 1e-6 of its row's size is
refused at seed scales 1, 1e8 and 1e-8, and so is a walk configuration
whose bend column is multiplied by 1e12, which the column side alone
passes, and one whose column is multiplied by 1e160, whose products
overflow.
"""

import itertools
import json
from fractions import Fraction as F

import pytest

from inversive import apollonian, forms, linalg, shell, transform
from inversive.scalars import EXACT, FLOAT, ROUNDING

import oracles

E, S, H = forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC
GEOMS = (E, S, H)
# the lambdas of W0 (1, 5, 3, 4) lambda, coth values near the isotropic case
LAMBDAS = (F(1, 3), F(2, 7), F(1, 10), F(7, 3), F(100, 3), F(1000, 3),
           F(10 ** 6, 7))


def _float_seed(geometry):
    return apollonian.standard_seed(geometry, mode=FLOAT)


def _loxodromic_configs():
    return [w for g in GEOMS
            for w in apollonian.loxodromic(_float_seed(g), 40).configs]


def _isotropic_sweep():
    out = []
    for lam in LAMBDAS:
        g = (1, 5 * lam, 3 * lam, 4 * lam)
        coths = tuple(sum(x * y for x, y in zip(row, g))
                      for row in oracles.BASE_ROWS[H])
        out.append(apollonian.realize_bends(H, tuple(map(float, coths))))
    return out


def _walk_bend_realizations():
    out = []
    for geometry, bends in ((S, (0, 1, 1, 2)), (H, (-2, 3, 5, 6))):
        seed = apollonian.realize_bends(geometry, tuple(map(F, bends)))
        for w in apollonian.loxodromic(seed, 60).configs:
            out.append(apollonian.realize_bends(
                geometry, tuple(map(float, w.bends))))
    return out


def _moved_configs():
    maps = (transform.translation((0.3, -0.7)), transform.dilation(3.0, 2),
            transform.inversion(2),
            linalg.matmul(transform.translation((F(3, 7), F(-2, 5))),
                          transform.dilation(F(5, 3), 2)))
    return [transform.moved(_float_seed(g), m) for g in GEOMS for m in maps]


def _generated_configs():
    # the hyperbolic standard seed has horocycle chains, so each walk is
    # capped
    out = []
    for g in GEOMS:
        out += apollonian.generate(_float_seed(g), 40, keep_configs=True,
                                   max_configs=200).configs
    out += apollonian.generate(apollonian.standard_seed(E, 3, FLOAT), 4,
                               keep_configs=True, max_configs=200).configs
    return out


EMITTERS = {
    "generate": _generated_configs,
    "loxodromic": _loxodromic_configs,
    "moved": _moved_configs,
    "walk-bends": _walk_bend_realizations,
    "isotropic-sweep": _isotropic_sweep,
}


def _read_back_and_converted(w):
    """Assert that w is accepted back from its document and converts to
    both other geometries; returns the conversions."""
    text = shell.dumps_config(w)
    assert shell.parse_document(text).valid, text
    assert shell.loads_config(text) == w
    return [transform.convert_matrix(w, to) for to in GEOMS
            if to != w.geometry]


@pytest.mark.parametrize("emitter", EMITTERS)
def test_every_emitted_float_configuration_is_accepted(emitter):
    configs = EMITTERS[emitter]()
    assert configs and all(w.mode == FLOAT for w in configs)
    for w in configs:
        for converted in _read_back_and_converted(w):
            _read_back_and_converted(converted)


def test_every_loxodromic_configuration_is_accepted():
    # an absolute tol alone accepts 53 of the 123
    configs = _loxodromic_configs()
    assert len(configs) == 123
    assert all(w.residual().ok for w in configs)
    assert sum(float(w.residual().max_abs_entry_error) > 1e-9
               for w in configs) == 70


def test_the_step_17_document_verifies_and_converts(tmp_path, capsys):
    w = apollonian.loxodromic(_float_seed(E), 17).configs[17]
    path = tmp_path / "step17.json"
    path.write_text(shell.dumps_config(w))
    assert shell.run(["verify", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True and report["max_residual"] > 1e-9
    assert shell.run(["convert", "--to", S, "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["geometry"] == S


def test_tol_only_widens_what_verify_accepts(tmp_path, capsys):
    # the step-17 document fails the 1e-9 tol test and is accepted within
    # the rounding of its own terms, which no --tol narrows
    w = apollonian.loxodromic(_float_seed(E), 17).configs[17]
    path = tmp_path / "step17.json"
    path.write_text(shell.dumps_config(w))
    assert shell.run(["verify", "--tol", "0", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


@pytest.mark.parametrize("geometry", GEOMS)
def test_a_column_whose_products_overflow_is_refused(geometry):
    # a bound of inf says nothing of its entry, even one that is inf too:
    # the Euclidean seed's column (0, 1, -1, 0) times 1e160 leaves every
    # other Gram entry as it was and only inf ones against inf bounds
    rows = _float_seed(geometry).matrix()
    for j in range(4):
        bad = forms.ConfigMatrix.from_rows(geometry, [
            tuple(x * 1e160 if k == j else x for k, x in enumerate(r))
            for r in rows])
        assert not bad.residual().ok, j
        assert not shell.parse_document(shell.dumps_config(bad)).valid, j
        with pytest.raises(ValueError, match="invalid seed"):
            apollonian.generate(bad, 10)


def _scaled_seed(geometry, s):
    """The float Euclidean standard seed dilated by s, in the geometry."""
    moved = transform.moved(_float_seed(E), transform.dilation(s, 2))
    return transform.convert_matrix(moved, geometry)


@pytest.mark.parametrize("geometry", GEOMS)
@pytest.mark.parametrize("s", (1.0, 1e8, 1e-8))
def test_one_entry_moved_by_1e_6_of_its_row_is_refused(geometry, s):
    w = _scaled_seed(geometry, s)
    assert w.residual().ok
    rows = w.matrix()
    for i, j in itertools.product(range(4), range(4)):
        moved = [list(r) for r in rows]
        moved[i][j] += 1e-6 * max(map(abs, rows[i]))
        bad = forms.ConfigMatrix.from_rows(geometry, moved)
        assert not bad.residual().ok, (i, j)
        assert not shell.parse_document(shell.dumps_config(bad)).valid


def _ill_conditioned(geometry):
    """A float walk configuration with bends above 1e16 whose bend column
    is multiplied by 1e12."""
    seed = _float_seed(geometry)
    w = next(c for c in apollonian.loxodromic(seed, 60).configs
             if max(map(abs, c.bends)) > 1e16)
    col = forms.bend_column(geometry)
    return forms.ConfigMatrix.from_rows(geometry, [
        tuple(x * 1e12 if k == col else x for k, x in enumerate(r))
        for r in w.matrix()])


@pytest.mark.parametrize("geometry", (S, H))
def test_an_ill_conditioned_matrix_is_refused(geometry):
    bad = _ill_conditioned(geometry)
    n, mode = bad.n, bad.mode
    q = forms.descartes_form(n, mode).matrix
    t = forms.target_for(geometry, n, mode)
    w = bad.matrix()
    # the column side within the rounding of its terms, the row side far
    # beyond it
    gram, bound = forms._gram_bound(w, q)
    assert all(abs(x - y) <= ROUNDING * b for grow, trow, brow
               in zip(gram, t, bound) for x, y, b in zip(grow, trow, brow))
    gram, bound = forms._gram_bound(linalg.transpose(w),
                                    linalg.mat_inv(t))
    excess = max(abs(x - y) / (ROUNDING * b) for grow, trow, brow
                 in zip(gram, linalg.mat_inv(q), bound)
                 for x, y, b in zip(grow, trow, brow))
    assert excess > 1e12
    assert not bad.residual().ok
    with pytest.raises(ValueError, match="invalid seed"):
        apollonian.generate(bad, 10)


def _tangency_sources():
    float_configs = _loxodromic_configs() + _walk_bend_realizations()
    exact = [apollonian.reflect(apollonian.standard_seed(g), i)
             for g in GEOMS for i in range(4)]
    exact.append(apollonian.realize_bends(
        S, (-3, -3, -3, -3, -2, -2, -1, -1, -1, -1)))
    return float_configs + exact


def test_the_transposed_side_is_the_tangency_form():
    """W T^{-1} W^T, as the rule forms it, is half the pair products of
    forms.pair_product, 1 on the diagonal and -1 off it, entry by entry:
    exactly for exact rows, and within the rounding bound of each entry for
    float rows."""
    for w in _tangency_sources():
        rows = w.matrix()
        t_inv = linalg.mat_inv(forms.target_for(w.geometry, w.n, w.mode))
        gram, bound = forms._gram_bound(
            linalg.transpose([tuple(map(float, r)) for r in rows]), t_inv)
        for i, j in itertools.product(range(w.n + 2), repeat=2):
            p = forms.pair_product(w.geometry, rows[i], rows[j])
            expected = 1 if i == j else -1
            if w.mode == EXACT:
                assert p == expected
            slack = 2 * ROUNDING * bound[i][j]
            assert abs(2 * gram[i][j] - p) <= slack, (w, i, j)
            assert abs(p - expected) <= slack, (w, i, j)
