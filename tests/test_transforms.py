import math

import numpy as np
import pytest

from stringnf.core import ComplexSeq
from stringnf.transforms import (
    EtaState,
    PsiState,
    UVState,
    ZState,
    elastic_energy,
    elastic_from_dilated,
    eta_to_psi,
    eta_to_z,
    mixing_rho,
    psi_to_eta,
    psi_to_uv,
    time_dilation,
    uv_to_psi,
    uv_to_z,
    z_to_eta,
    z_to_uv,
)

M = 12


def random_uv(rng, norm_cap=1.0, modes=M):
    # scaled into the ball  sum b^3 u_b^2 + sum b v_b^2 <= norm_cap^2
    u = {b: rng.standard_normal() for b in range(1, modes + 1)}
    v = {b: rng.standard_normal() for b in range(1, modes + 1)}
    nrm = math.sqrt(sum(b**3 * x**2 for b, x in u.items()) + sum(b * x**2 for b, x in v.items()))
    c = norm_cap * rng.uniform(0.05, 0.95) / nrm
    return UVState({b: c * x for b, x in u.items()}, {b: c * x for b, x in v.items()}, modes)


class TestUvPsi:
    def test_unit_example(self):
        st = UVState({1: math.sqrt(2.0)}, {}, 4)
        psi = uv_to_psi(st)
        assert psi.seq[1] == pytest.approx(1.0, abs=1e-15)

    def test_mode_four_example(self):
        st = UVState({4: 1.0}, {4: 2.0}, 4)
        psi = uv_to_psi(st)
        assert psi.seq[4] == pytest.approx((2 + 1j) / math.sqrt(2.0), abs=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            st = random_uv(rng)
            back = psi_to_uv(uv_to_psi(st))
            for b in range(1, M + 1):
                assert back.u.get(b, 0.0) == pytest.approx(st.u.get(b, 0.0), abs=1e-14)
                assert back.v.get(b, 0.0) == pytest.approx(st.v.get(b, 0.0), abs=1e-14)

    def test_action_identity(self):
        # |psi_a|^2 == (a u_a^2 + v_a^2 / a) / 2
        rng = np.random.default_rng(8)
        st = random_uv(rng)
        psi = uv_to_psi(st)
        for a in range(1, M + 1):
            ua, va = st.u.get(a, 0.0), st.v.get(a, 0.0)
            assert psi.seq.action(a) == pytest.approx((a * ua * ua + va * va / a) / 2, rel=1e-12, abs=1e-15)


class TestElasticEnergy:
    def test_real_unit(self):
        assert elastic_energy(ComplexSeq({1: 1.0}, 4)) == pytest.approx(1.0)

    def test_imaginary_gives_zero(self):
        assert elastic_energy(ComplexSeq({2: 3j}, 4)) == 0.0

    def test_matches_displacement_slope_norm(self):
        st = UVState({1: 1.0}, {}, 4)
        assert elastic_energy(uv_to_psi(st).seq) == pytest.approx(0.5, abs=1e-15)
        rng = np.random.default_rng(9)
        for _ in range(20):
            st = random_uv(rng)
            q = elastic_energy(uv_to_psi(st).seq)
            slope = 0.5 * sum(b * b * x * x for b, x in st.u.items())
            assert q == pytest.approx(slope, rel=1e-12, abs=1e-16)


class TestElasticFromDilated:
    @pytest.mark.parametrize("y,x", [(0.0, 0.0), (math.sqrt(3.0), 1.0), (12.0, 4.0)])
    def test_known_values(self, y, x):
        assert elastic_from_dilated(y) == pytest.approx(x, rel=1e-13, abs=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            elastic_from_dilated(-0.1)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_non_finite_rejected(self, y):
        # the Newton loop used to return nan, for nan only after its 200 iterations
        with pytest.raises(ValueError, match="not finite"):
            elastic_from_dilated(y)

    def test_roundtrip_many(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = rng.uniform(0.0, 50.0)
            y = x * math.sqrt(1.0 + 2.0 * x)
            assert elastic_from_dilated(y) == pytest.approx(x, rel=1e-13, abs=1e-14)


class TestMixing:
    def test_rho_range(self):
        for x in [0.0, 1e-6, 0.5, 3.0, 1e6]:
            r = mixing_rho(x)
            assert 0.0 <= r < 1.0
        # past about 1e33 the coefficient rounds to 1 and the mixing is singular
        for x in [1e40, math.inf]:
            with pytest.raises(ValueError, match="elastic energy"):
                mixing_rho(x)

    def test_dilation_identity(self):
        # elastic(eta) == q sqrt(1 + 2q) with q = elastic(psi)
        rng = np.random.default_rng(11)
        for _ in range(100):
            psi = uv_to_psi(random_uv(rng, norm_cap=2.0))
            q = elastic_energy(psi.seq)
            eta = psi_to_eta(psi)
            assert eta.elastic == pytest.approx(q * math.sqrt(1.0 + 2.0 * q), rel=1e-12, abs=1e-15)

    def test_psi_eta_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            psi = uv_to_psi(random_uv(rng, norm_cap=2.0))
            back = eta_to_psi(psi_to_eta(psi))
            for a, p in psi.seq.data.items():
                assert back.seq[a] == pytest.approx(p, abs=1e-12)

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(13)
        psi = uv_to_psi(random_uv(rng))
        eta = psi_to_eta(psi)
        eta_conj = psi_to_eta(PsiState(psi.seq.conj()))
        for a in range(1, M + 1):
            assert eta_conj.seq[a] == pytest.approx(eta.seq[a].conjugate(), abs=1e-14)


class TestZLevel:
    def test_rescale_exact(self):
        eta = EtaState(ComplexSeq({3: 0.25 + 0.5j}, 4), elastic_energy(ComplexSeq({3: 0.25 + 0.5j}, 4)))
        z = eta_to_z(eta)
        assert z.seq[3] == 3 * (0.25 + 0.5j)
        back = z_to_eta(z)
        assert back.seq[3] == pytest.approx(eta.seq[3], abs=0)

    def test_dilated_energy_identity_exact(self):
        # the z-level quadratic form is computed through the eta rescale, so the
        # agreement is literal float equality
        rng = np.random.default_rng(14)
        for _ in range(50):
            eta = psi_to_eta(uv_to_psi(random_uv(rng)))
            z = eta_to_z(eta)
            assert z_to_eta(z).elastic == elastic_energy(z_to_eta(z).seq)

    def test_time_dilation_values(self):
        empty = EtaState(ComplexSeq({}, 4), 0.0)
        assert time_dilation(empty) == 1.0
        # dilated energy sqrt(3) corresponds to unit elastic energy
        eta = EtaState(ComplexSeq({}, 4), math.sqrt(3.0))
        assert time_dilation(eta) == pytest.approx(math.sqrt(3.0), rel=1e-13)

    def test_time_dilation_monotone(self):
        vals = [time_dilation(EtaState(ComplexSeq({}, 4), y)) for y in np.linspace(0, 10, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_time_dilation_rejects_non_finite_energy(self):
        with pytest.raises(ValueError, match="dilated elastic energy inf is not finite"):
            time_dilation(EtaState(ComplexSeq({1: 0.1}, 2), math.inf))

    def test_overflowing_state_reports_non_finite_energy(self):
        # |z_1|^2 overflows, so the dilated energy is inf rather than too large
        with pytest.raises(ValueError, match="dilated elastic energy inf is not finite"):
            z_to_uv(ZState(ComplexSeq({1: 1e160}, 2)))

    def test_time_dilation_band(self):
        # dilated elastic energy <= 3/2 keeps the speed factor in [1, 2]
        rng = np.random.default_rng(15)
        for _ in range(100):
            y = rng.uniform(0.0, 1.5)
            tau = time_dilation(EtaState(ComplexSeq({}, 4), y))
            assert 1.0 <= tau <= 2.0


class TestFullChain:
    def test_roundtrip_thousand_states(self):
        rng = np.random.default_rng(16)
        worst = 0.0
        for _ in range(1000):
            st = random_uv(rng)
            back = z_to_uv(uv_to_z(st))
            for b in range(1, M + 1):
                worst = max(worst, abs(back.u.get(b, 0.0) - st.u.get(b, 0.0)))
                worst = max(worst, abs(back.v.get(b, 0.0) - st.v.get(b, 0.0)))
        assert worst <= 1e-12

    def test_chain_conjugation(self):
        # negating the velocity conjugates every complex level
        rng = np.random.default_rng(17)
        st = random_uv(rng)
        flipped = UVState(st.u, {b: -x for b, x in st.v.items()}, st.truncation)
        z, zf = uv_to_z(st), uv_to_z(flipped)
        for a in range(1, M + 1):
            assert zf.seq[a] == pytest.approx(z.seq[a].conjugate(), abs=1e-14)
