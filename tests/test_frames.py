import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import autodiff as ad
from rotinv import frames as fr
from rotinv.geometry import knn_graph, sample_rotation_so3
from rotinv.gradcheck import check_tensor_gradient
from rotinv.vecneuron import gather_neighbors

SQ2 = np.sqrt(2.0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def composed_consistency_loss(pair, knn):
    """Reference form of consistency_loss, op by op: the neighbours'
    gathers, the two dot products per edge, their gap and its mean square."""
    b, n = pair.v1.shape[:2]
    d1, d2 = (ad.tsum(ad.reshape(v, (b, n, 1, 3)) * gather_neighbors(v, knn), axis=-1)
              for v in (pair.v1, pair.v2))
    gap = d1 - d2
    return ad.mean(gap * gap)


EXTENDED = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def paper_lcrf(pair):
    """The paper's literal bisector frame, through sin t, cos t and vbar as
    `bisector_identity_residuals` computes them, in long double.  The
    construction presumes unit vectors, so the pair is first made unit in
    long double: near |d| = 1 the cancellation in 1 -+ d would otherwise turn
    float64's ULP-level norm errors into 1e-11 errors in the frame."""
    v1 = unit_rows(pair.v1.data.astype(np.longdouble))
    v2 = unit_rows(pair.v2.data.astype(np.longdouble))
    d = (v1 * v2).sum(axis=-1, keepdims=True)
    sin_t = np.sqrt((1 - d) / 2)
    cos_t = np.sqrt((1 + d) / 2)
    vbar = unit_rows(v1 + v2) * (sin_t + cos_t)
    u1 = unit_rows(vbar - v1)
    u2 = unit_rows(vbar - v2)
    return np.stack([u1, u2, np.cross(u1, u2)], axis=-1)


def near_band_pair(sign, seed=0, n=20, gap=2e-6):
    """Unit pairs with v1.v2 = sign (1 - gap), just outside the guard band."""
    rng = np.random.default_rng(seed)
    v1 = unit_rows(rng.standard_normal((n, 3)))
    p = rng.standard_normal((n, 3))
    p = unit_rows(p - (p * v1).sum(axis=-1, keepdims=True) * v1)
    c = 1.0 - gap
    v2 = unit_rows(c * v1 + np.sqrt(1.0 - c * c) * p)
    return fr.ProjectedPair.from_arrays(v1, sign * v2)


def random_valid_pair(seed, n=50):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((2, n, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    dots = (v[0] * v[1]).sum(-1)
    keep = np.abs(dots) < 1 - 1e-4
    return fr.ProjectedPair.from_arrays(v[0][keep], v[1][keep])


class TestProjectedPair:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            fr.ProjectedPair.from_arrays([2.0, 0, 0], [0, 1.0, 0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fr.ProjectedPair(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 3))))


class TestGramSchmidt:
    def test_hand_example(self):
        # v1 = e1, v2 = (e1+e2)/sqrt2: residual is e2, frame is the identity
        pair = fr.ProjectedPair.from_arrays([1.0, 0, 0], unit([1.0, 1.0, 0]))
        frame = fr.gram_schmidt_frame(pair)
        np.testing.assert_allclose(frame.data, np.eye(3), atol=1e-15)
        assert frame.kind == "gram-schmidt"

    def test_orthogonal_inputs_pass_through(self):
        pair = fr.ProjectedPair.from_arrays([1.0, 0, 0], [0, 0, 1.0])
        frame = fr.gram_schmidt_frame(pair)
        np.testing.assert_allclose(frame.column(2), [0, 0, 1.0], atol=1e-15)

    def test_parallel_inputs_degenerate(self):
        pair = fr.ProjectedPair.from_arrays([1.0, 0, 0], [1.0, 0, 0])
        with pytest.raises(fr.DegenerateFrameError) as err:
            fr.gram_schmidt_frame(pair)
        assert err.value.dot == pytest.approx(1.0)

    def test_asymmetric_in_inputs(self):
        pair = random_valid_pair(0)
        a = fr.gram_schmidt_frame(pair).data
        b = fr.gram_schmidt_frame(pair.swapped()).data
        swapped = a[..., [1, 0, 2]]
        assert np.abs(b - swapped).max() > 1e-3

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_orthonormal_right_handed(self, seed):
        frame = fr.gram_schmidt_frame(random_valid_pair(seed))
        m = frame.data
        gram = np.einsum("nij,nik->njk", m, m)
        assert np.abs(gram - np.eye(3)).max() <= 1e-9
        assert np.abs(np.linalg.det(m) - 1.0).max() <= 1e-9


class TestBisectorFrame:
    def test_hand_example(self):
        # orthogonal inputs: theta = pi/4, vbar = v1 + v2, axes swap roles
        pair = fr.ProjectedPair.from_arrays([1.0, 0, 0], [0, 1.0, 0])
        frame = fr.lcrf_frame(pair)
        np.testing.assert_allclose(frame.column(1), [0, 1.0, 0], atol=1e-15)
        np.testing.assert_allclose(frame.column(2), [1.0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(frame.column(3), [0, 0, -1.0], atol=1e-15)

    @given(st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_axes_orthogonal(self, seed):
        frame = fr.lcrf_frame(random_valid_pair(seed))
        dots = (frame.data[..., :, 0] * frame.data[..., :, 1]).sum(-1)
        assert np.abs(dots).max() <= 1e-9

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_equivariance(self, seed):
        pair = random_valid_pair(seed)
        rot = sample_rotation_so3(seed).matrix
        frame = fr.lcrf_frame(pair)
        frame_rot = fr.lcrf_frame(pair.rotated(rot))
        expected = np.einsum("ij,njk->nik", rot, frame.data)
        assert np.abs(frame_rot.data - expected).max() <= 1e-9

    def test_swap_symmetry_exact(self):
        pair = random_valid_pair(2)
        a = fr.lcrf_frame(pair)
        b = fr.lcrf_frame(pair.swapped())
        assert np.array_equal(b.data[..., 0], a.data[..., 1])
        assert np.array_equal(b.data[..., 1], a.data[..., 0])

    def test_out_of_range_dot_degenerate(self):
        pair = fr.ProjectedPair.from_arrays([0, 0, 1.0], [0, 0, -1.0])
        with pytest.raises(fr.DegenerateFrameError):
            fr.lcrf_frame(pair)

    def test_fallback_patches_bad_rows(self):
        v1 = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        v2 = np.array([[1.0, 0, 0], [1.0, 0, 0]])  # first row is degenerate
        pair = fr.ProjectedPair.from_arrays(v1, v2)
        fallback = fr.identity_frames((2,))
        frame = fr.lcrf_frame(pair, fallback=fallback)
        np.testing.assert_array_equal(frame.data[0], np.eye(3))
        dots = (frame.data[1][:, 0] * frame.data[1][:, 1]).sum()
        assert abs(dots) <= 1e-9
        gs = fr.gram_schmidt_frame(pair, fallback=fallback)
        assert frame.degenerate.tolist() == gs.degenerate.tolist() == [True, False]

    @pytest.mark.parametrize("bad_v2", [[1.0, 0, 0], [-1.0, 0, 0]],
                             ids=["parallel", "antiparallel"])
    @pytest.mark.parametrize("build", [fr.gram_schmidt_frame, fr.lcrf_frame],
                             ids=["gram-schmidt", "lcrf"])
    def test_fallback_blocks_gradient_to_bad_rows(self, build, bad_v2):
        v1 = ad.Tensor(np.array([[1.0, 0, 0], [0, 1.0, 0]]), requires_grad=True)
        v2 = ad.Tensor(np.array([bad_v2, [1.0, 0, 0]]), requires_grad=True)
        prev = ad.set_strict_finite_checks(True)
        try:
            frame = build(fr.ProjectedPair(v1, v2),
                          fallback=fr.identity_frames((2,)))
            ad.backward(ad.tsum(frame.matrix))
        finally:
            ad.set_strict_finite_checks(prev)
        assert frame.degenerate.tolist() == [True, False]
        assert np.isfinite(frame.data).all()
        np.testing.assert_array_equal(frame.data[0], np.eye(3))
        for v in (v1, v2):
            assert np.isfinite(v.grad).all()
            np.testing.assert_array_equal(v.grad[0], np.zeros(3))
        assert np.abs(v1.grad[1]).max() > 0

    @pytest.mark.skipif(not EXTENDED, reason="long double is no wider than float64")
    @pytest.mark.parametrize("pair", [random_valid_pair(0), random_valid_pair(1),
                                      random_valid_pair(2), near_band_pair(1.0),
                                      near_band_pair(-1.0)],
                             ids=["random-0", "random-1", "random-2",
                                  "near-parallel", "near-antiparallel"])
    def test_matches_paper_construction(self, pair):
        frame = fr.lcrf_frame(pair)
        assert np.abs(frame.data - paper_lcrf(pair)).max() <= 1e-12
        dots = (frame.column(1) * frame.column(2)).sum(axis=-1)
        assert np.abs(dots).max() <= 1e-14


@pytest.mark.parametrize("build", [fr.gram_schmidt_frame, fr.lcrf_frame],
                         ids=["gram-schmidt", "lcrf"])
class TestZeroLengthPairVector:
    """A zero projection normalizes to a zero vector, whose v1.v2 = 0 lies
    outside the parallel band; it is flagged all the same."""

    PAIRS = [([0.0, 0, 0], [0, 0, 1.0]), ([0, 0, 1.0], [0.0, 0, 0])]

    @pytest.mark.parametrize("v1,v2", PAIRS)
    def test_raises_without_fallback(self, build, v1, v2):
        pair = fr.ProjectedPair(ad.Tensor([v1]), ad.Tensor([v2]))
        with pytest.raises(fr.DegenerateFrameError, match="zero-length"):
            build(pair)

    @pytest.mark.parametrize("v1,v2", PAIRS)
    def test_takes_the_fallback(self, build, v1, v2):
        pair = fr.ProjectedPair(ad.Tensor([v1, [1.0, 0, 0]]),
                                ad.Tensor([v2, [0, 1.0, 0]]))
        frame = build(pair, fallback=fr.identity_frames((2,)))
        assert frame.degenerate.tolist() == [True, False]
        np.testing.assert_array_equal(frame.data[0], np.eye(3))
        assert (np.linalg.matrix_rank(frame.data) == 3).all()


class TestHandcraftedFrame:
    def make_batch(self, seed=0, n=20, b=1):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((b, n, 3))
        pts -= pts.mean(axis=1, keepdims=True)
        return pts

    @staticmethod
    def graph(pts, k):
        return np.stack([knn_graph(p, k) for p in pts])

    def test_radial_first_axis(self):
        pts = self.make_batch()
        frame = fr.handcrafted_frame(pts, self.graph(pts, 4))
        expected = unit(pts[0, 3] - pts[0].mean(axis=0))
        np.testing.assert_allclose(frame.column(1)[0, 3], expected, atol=1e-12)

    def test_symmetric_neighborhood_degenerate(self):
        # point 0 surrounded symmetrically: barycenter lands on it
        pts = np.array([[[0.0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [5, 5, 5]]])
        knn = np.array([[[1, 2, 3, 4]] * 6])
        with pytest.raises(fr.DegenerateFrameError):
            fr.handcrafted_frame(pts, knn)

    def test_fallback_replaces_only_degenerate_points(self):
        pts = np.array([[[0.0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [5, 5, 5]]])
        knn = np.array([[[1, 2, 3, 4]] * 6])
        frame = fr.handcrafted_frame(pts, knn,
                                     fallback=fr.identity_frames((1, 6)))
        np.testing.assert_array_equal(frame.data[0, 0], np.eye(3))
        # point 5's barycenter direction is radial, so it falls back too
        assert frame.degenerate.tolist() == [[True, False, False, False,
                                              False, True]]
        gram = np.einsum("nij,nik->njk", frame.data[0], frame.data[0])
        assert np.abs(gram - np.eye(3)).max() <= 1e-9

    def test_batch_matches_each_cloud_alone(self):
        pts = self.make_batch(4, n=32, b=5)
        knn = self.graph(pts, 6)
        frame = fr.handcrafted_frame(pts, knn)
        for i in range(pts.shape[0]):
            one = fr.handcrafted_frame(pts[i:i + 1], knn[i:i + 1])
            np.testing.assert_array_equal(frame.data[i], one.data[0])

    def test_equivariance(self):
        pts = self.make_batch(1)
        rot = sample_rotation_so3(2).matrix
        frame = fr.handcrafted_frame(pts, self.graph(pts, 5))
        rotated = pts @ rot.T
        frame_rot = fr.handcrafted_frame(rotated, self.graph(rotated, 5))
        expected = np.einsum("ij,bnjk->bnik", rot, frame.data)
        assert np.abs(frame_rot.data - expected).max() <= 1e-9

    def test_orthonormal(self):
        pts = self.make_batch(3, b=2)
        frame = fr.handcrafted_frame(pts, self.graph(pts, 4))
        gram = np.einsum("bnij,bnik->bnjk", frame.data, frame.data)
        assert np.abs(gram - np.eye(3)).max() <= 1e-9


class TestConsistencyMetric:
    def test_self_consistency_is_one(self):
        frame = fr.lcrf_frame(random_valid_pair(0))
        np.testing.assert_allclose(fr.consistency(frame, frame, 1), 1.0,
                                   atol=1e-12)

    def test_antiparallel_axis_is_minus_one(self):
        a = fr.Frame(ad.Tensor(np.eye(3)), kind="identity")
        flipped = np.eye(3)
        flipped[:, 0] *= -1
        b = fr.Frame(ad.Tensor(flipped), kind="identity")
        assert fr.consistency(a, b, 1) == pytest.approx(-1.0)

    def test_rewrite_on_orthogonalized_pairs(self):
        # with v1 orthogonal to v2 in both frames, the axis-1 consistency
        # reduces to the inner product of the second projected vectors
        rng = np.random.default_rng(4)
        for _ in range(50):
            v1a, v1b = (unit(rng.standard_normal(3)) for _ in range(2))
            v2a = unit(np.cross(v1a, rng.standard_normal(3)))
            v2b = unit(np.cross(v1b, rng.standard_normal(3)))
            fa = fr.lcrf_frame(fr.ProjectedPair.from_arrays(v1a, v2a))
            fb = fr.lcrf_frame(fr.ProjectedPair.from_arrays(v1b, v2b))
            lhs = fr.consistency(fa, fb, 1)
            assert abs(lhs - v2a @ v2b) <= 1e-9

    def test_axis_validation(self):
        frame = fr.identity_frames((1,))
        with pytest.raises(ValueError):
            fr.consistency(frame, frame, 0)


class TestLosses:
    def test_orthogonal_pairs_zero_loss(self):
        pair = fr.ProjectedPair.from_arrays([1.0, 0, 0], [0, 1.0, 0])
        assert fr.orthogonality_loss(pair).item() == pytest.approx(0.0)

    def test_parallel_pairs_max_loss(self):
        v = np.tile(unit([1.0, 2.0, 3.0]), (4, 1))
        pair = fr.ProjectedPair.from_arrays(v, v)
        assert fr.orthogonality_loss(pair).item() == pytest.approx(1.0)

    def test_squared_variant_penalizes_antiparallel(self):
        pair = fr.ProjectedPair.from_arrays([1.0, 0, 0], [-1.0, 0, 0])
        assert fr.orthogonality_loss(pair).item() == pytest.approx(-1.0)
        assert fr.orthogonality_loss(pair, squared=True).item() == pytest.approx(1.0)

    def test_orthogonality_gradient(self, rng):
        raw = rng.standard_normal((2, 12, 3))
        err = check_tensor_gradient(
            lambda t: fr.orthogonality_loss(
                fr.ProjectedPair(ad.normalize(t[0], axis=-1),
                                 ad.normalize(t[1], axis=-1))), raw)
        assert err <= 1e-4

    def test_consistency_loss_zero_when_shared(self):
        v1 = np.tile(unit([1.0, 0, 0]), (1, 6, 1))
        v2 = np.tile(unit([0, 1.0, 0]), (1, 6, 1))
        pair = fr.ProjectedPair.from_arrays(v1, v2)
        graph = knn_graph(np.random.default_rng(0).standard_normal((6, 3)), 2)[None]
        assert fr.consistency_loss(pair, graph).item() == pytest.approx(0.0)

    def test_consistency_loss_extreme_pair(self):
        # d1 = +1 and d2 = -1 on every edge: each contribution is (1+1)^2
        v1 = np.array([[[1.0, 0, 0], [1.0, 0, 0]]])
        v2 = np.array([[[0, 1.0, 0], [0, -1.0, 0]]])
        pair = fr.ProjectedPair.from_arrays(v1, v2)
        graph = np.array([[[1], [0]]])
        assert fr.consistency_loss(pair, graph).item() == pytest.approx(4.0)

    def test_consistency_gradient(self, rng):
        raw = rng.standard_normal((2, 10, 3))
        graph = knn_graph(rng.standard_normal((10, 3)), 3)[None]
        err = check_tensor_gradient(
            lambda t: fr.consistency_loss(
                fr.ProjectedPair(ad.normalize(t[0:1], axis=-1),
                                 ad.normalize(t[1:2], axis=-1)), graph), raw)
        assert err <= 1e-4

    @pytest.mark.parametrize("b,n,k", [(1, 6, 2), (3, 9, 4)])
    def test_consistency_loss_matches_composed_form(self, rng, b, n, k):
        # the same bits as the op-by-op graph, value and gradient, with both
        # vectors read from one leaf that reaches them through the frame's
        # other consumers too, and with repeated neighbours
        raw = rng.standard_normal((2, b, n, 3))
        knn = rng.integers(0, n, (b, n, k))
        runs = []
        for fn in (fr.consistency_loss, composed_consistency_loss):
            leaf = ad.Tensor(raw, requires_grad=True)
            pair = fr.ProjectedPair(ad.normalize(leaf[0], axis=-1),
                                    ad.normalize(leaf[1], axis=-1))
            loss = fr.orthogonality_loss(pair) + fn(pair, knn)
            ad.backward(loss)
            runs.append((loss.data, leaf.grad))
        (loss, grad), (ref, ref_grad) = runs
        assert np.array_equal(loss, ref) and np.array_equal(grad, ref_grad)

    def test_consistency_loss_is_one_node(self, rng):
        v = [ad.Tensor(unit_rows(rng.standard_normal((2, 5, 3))), requires_grad=True)
             for _ in range(2)]
        knn = rng.integers(0, 5, (2, 5, 3))
        loss = fr.consistency_loss(fr.ProjectedPair(*v), knn)
        assert loss._op == "consistency_loss"
        assert loss._parents == (v[0], v[0], v[1], v[1])
        with ad.no_grad():
            plain = fr.consistency_loss(fr.ProjectedPair(*v), knn)
        assert plain._parents == () and np.array_equal(plain.data, loss.data)

    def test_losses_invariant_to_global_rotation(self):
        flat = random_valid_pair(5)
        pair = fr.ProjectedPair(flat.v1[None], flat.v2[None])
        rot = sample_rotation_so3(6).matrix
        rotated = pair.rotated(rot)
        graph = knn_graph(np.random.default_rng(0).standard_normal(
            (flat.v1.shape[0], 3)), 3)[None]
        assert abs(fr.orthogonality_loss(pair).item()
                   - fr.orthogonality_loss(rotated).item()) <= 1e-12
        assert abs(fr.consistency_loss(pair, graph).item()
                   - fr.consistency_loss(rotated, graph).item()) <= 1e-12


class TestIdentityResiduals:
    def test_random_pairs_residuals_vanish(self):
        pair = random_valid_pair(7, n=10_000)
        assert fr.max_bisector_residual(pair) <= 1e-9

    def test_orthogonal_pair_closed_forms(self):
        # theta = pi/4: |vbar|^2 = 2, vbar.v2 = v1.vbar = 1
        pair = fr.ProjectedPair.from_arrays([1.0, 0, 0], [0, 1.0, 0])
        res = fr.bisector_identity_residuals(pair)
        vbar_sq = res["vbar_norm"] + (SQ2 / 2 + SQ2 / 2) ** 2
        assert vbar_sq == pytest.approx(2.0, abs=1e-12)
        for key in ("vbar_dot_v2", "v1_dot_vbar", "numerator"):
            assert abs(res[key]) <= 1e-12

    def test_near_degenerate_conditioning_report(self):
        # dot = 1 - 2*eps sits just outside the guard band; residuals grow
        # but stay tame.  Logged for the record, not asserted tightly.
        eps = fr.EPS_PARALLEL
        angle = np.arccos(1 - 2 * eps)
        v1 = np.array([1.0, 0, 0])
        v2 = unit([np.cos(angle), np.sin(angle), 0.0])
        pair = fr.ProjectedPair.from_arrays(v1, v2)
        residual = fr.max_bisector_residual(pair)
        print(f"conditioning report: dot=1-2eps residual={residual:.3e}")
        assert residual <= 1e-6


class TestFrameGradients:
    def test_bisector_frame_gradient(self, rng):
        raw = rng.standard_normal((2, 8, 3))
        weights = ad.Tensor(rng.standard_normal((8, 3, 3)))

        def loss(t):
            pair = fr.ProjectedPair(ad.normalize(t[0], axis=-1),
                                    ad.normalize(t[1], axis=-1))
            frame = fr.lcrf_frame(pair)
            return ad.tsum(frame.matrix * weights)

        assert check_tensor_gradient(loss, raw) <= 1e-4

    def test_gram_schmidt_gradient(self, rng):
        raw = rng.standard_normal((2, 8, 3))
        weights = ad.Tensor(rng.standard_normal((8, 3, 3)))

        def loss(t):
            pair = fr.ProjectedPair(ad.normalize(t[0], axis=-1),
                                    ad.normalize(t[1], axis=-1))
            return ad.tsum(fr.gram_schmidt_frame(pair).matrix * weights)

        assert check_tensor_gradient(loss, raw) <= 1e-4


class TestExport:
    def test_csv_layout(self, tmp_path, rng):
        pts = rng.standard_normal((9, 3))
        frame = fr.lcrf_frame(random_valid_pair(8, n=20))
        frame = fr.Frame(ad.Tensor(frame.data[:9]), kind="lcrf")
        path = tmp_path / "frames.csv"
        fr.export_frames_csv(path, pts, frame)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["x", "y", "z"]
        assert len(rows) == 10  # header + one row per point
        values = np.array(rows[1:], dtype=float)
        u1 = values[:, 3:6]
        u2 = values[:, 6:9]
        assert np.abs((u1 * u2).sum(-1)).max() <= 1e-9
        assert np.abs(np.linalg.norm(u1, axis=1) - 1).max() <= 1e-9

    def test_ply_layout_and_rotation(self, tmp_path, rng):
        pts = rng.standard_normal((5, 3))
        pair = random_valid_pair(9, n=12)
        frame = fr.Frame(ad.Tensor(pair.v1.data[:5, :, None]
                                   * np.zeros((5, 3, 3)) + np.eye(3)), "identity")
        path = tmp_path / "frames.ply"
        fr.export_frames_ply(path, pts, frame, scale=0.1)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        n_vertex = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
        n_edge = int(next(l for l in lines if l.startswith("element edge")).split()[-1])
        assert n_vertex == 20 and n_edge == 15
        header_end = lines.index("end_header")
        vertices = np.array([l.split() for l in
                             lines[header_end + 1:header_end + 1 + n_vertex]],
                            dtype=float)
        # rotating the input rotates the exported segments
        rot = sample_rotation_so3(1).matrix
        rot_frame = fr.Frame(ad.Tensor(np.einsum("ij,njk->nik", rot,
                                                 frame.data)), "identity")
        path2 = tmp_path / "rot.ply"
        fr.export_frames_ply(path2, pts @ rot.T, rot_frame, scale=0.1)
        lines2 = path2.read_text().splitlines()
        vertices2 = np.array([l.split() for l in
                              lines2[header_end + 1:header_end + 1 + n_vertex]],
                             dtype=float)
        np.testing.assert_allclose(vertices2, vertices @ rot.T, atol=1e-6)

    def test_mismatched_counts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fr.export_frames_csv(tmp_path / "x.csv", np.zeros((3, 3)),
                                 fr.identity_frames((2,)))
